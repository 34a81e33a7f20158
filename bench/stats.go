package main

import (
	"sort"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// calmShare is the quantile, counted from the good side, that the serve
// metrics report: the latency the fastest tenth of the requests stay under,
// the rate the best tenth of the rounds reach. A lookup crosses goroutines
// four times, and on this shared 2-vCPU VM a hand-off to a vCPU that has
// gone idle costs whatever the host takes to schedule it again: the median
// of unchanged code moved 22 % between runs of one disturbed hour, the
// tenth percentile 2.5 % (hot) and 11 % (cold); see README.md, "What a
// run reports". A change that slows every request moves both alike.
const calmShare = 0.1

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs,
// n=4) does (exclusive method), which is how the driver judges spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

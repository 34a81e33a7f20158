package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4): one # HELP / # TYPE pair per family, then one sample
// line per series, histograms with cumulative _bucket/_sum/_count rows.
// Families and series are emitted in sorted order so output is
// deterministic. It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	lastFamily := ""
	for _, s := range r.snapshotSeries() {
		if s.name != lastFamily {
			lastFamily = s.name
			if s.help != "" {
				if _, err := fmt.Fprintf(cw, "# HELP %s %s\n", s.name, escapeHelp(s.help)); err != nil {
					return cw.n, err
				}
			}
			if _, err := fmt.Fprintf(cw, "# TYPE %s %s\n", s.name, s.kind); err != nil {
				return cw.n, err
			}
		}
		if err := writeSeries(cw, s); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ServeHTTP serves the exposition: the registry is the GET /v1/metrics
// handler of every host binary.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// Write errors mean the client went away mid-scrape; nothing to do.
	_, _ = r.WriteTo(w)
}

func writeSeries(w io.Writer, s *series) error {
	switch s.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.name, labelString(s.labels, "", ""), s.counter.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", s.name, labelString(s.labels, "", ""), formatFloat(s.gauge.Value()))
		return err
	case KindHistogram:
		h := s.histogram
		var cum uint64
		for i, ub := range s.upper {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				s.name, labelString(s.labels, "le", formatFloat(ub)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			s.name, labelString(s.labels, "le", "+Inf"), h.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.name, labelString(s.labels, "", ""), formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, labelString(s.labels, "", ""), h.Count())
		return err
	default:
		return fmt.Errorf("metrics: bad kind %v", s.kind)
	}
}

// labelString renders {k="v",...}, optionally appending one extra label
// (used for histogram le). Empty label sets render as "".
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraKey)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraVal))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Bucket is one cumulative histogram bucket in a snapshot. Le is the
// upper bound rendered as a string so that "+Inf" survives JSON.
type Bucket struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// Metric is one series in a snapshot, JSON-encodable as-is.
type Metric struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge value (counters as exact floats —
	// they stay well under 2^53 in any realistic run).
	Value float64 `json:"value,omitempty"`
	// Histogram fields.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns every registered series as plain data, sorted by name
// then labels — the JSON sibling of WriteTo, used by tests and by
// eppi-bench to embed metrics in its output.
func (r *Registry) Snapshot() []Metric {
	all := r.snapshotSeries()
	out := make([]Metric, 0, len(all))
	for _, s := range all {
		m := Metric{Name: s.name, Kind: s.kind.String()}
		if len(s.labels) > 0 {
			m.Labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				m.Labels[l.Key] = l.Value
			}
		}
		switch s.kind {
		case KindCounter:
			m.Value = float64(s.counter.Value())
		case KindGauge:
			m.Value = s.gauge.Value()
		case KindHistogram:
			h := s.histogram
			m.Count = h.Count()
			m.Sum = h.Sum()
			var cum uint64
			for i, ub := range s.upper {
				cum += h.counts[i].Load()
				m.Buckets = append(m.Buckets, Bucket{Le: formatFloat(ub), Count: cum})
			}
			m.Buckets = append(m.Buckets, Bucket{Le: "+Inf", Count: m.Count})
		}
		out = append(out, m)
	}
	return out
}

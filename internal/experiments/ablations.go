package experiments

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/workload"
)

// Ablations probe the two load-bearing design choices of ε-PPI beyond the
// paper's own figures:
//
//   - AblationMixing removes the identity-mixing defence (λ → 0) and shows
//     the common-identity attack returning to full confidence — the
//     experimental justification for Equation 6.
//   - AblationC sweeps the coordinator count c, pricing the collusion
//     tolerance (tolerate up to c−1 colluders) in circuit size, traffic
//     and wall time.

// AblationMixing compares the common-identity attack confidence with the
// mixing defence enabled (ξ = 0.8) versus disabled.
func AblationMixing(opts Options) (*TableResult, error) {
	m, n, repeats := 2000, 200, 10
	if opts.Quick {
		m, n, repeats = 400, 100, 6
	}
	commonsPlanted := n / 40
	if commonsPlanted < 3 {
		commonsPlanted = 3
	}
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers:    m,
		Owners:       n,
		Exponent:     1.2,
		MaxFrequency: m / 25,
		Seed:         opts.Seed,
		EpsLow:       0.3,
		EpsHigh:      0.9,
	})
	if err != nil {
		return nil, err
	}
	for j := 0; j < commonsPlanted; j++ {
		for i := 0; i < m; i++ {
			d.Matrix.Set(i, j, true)
		}
	}
	base := core.Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Workers: opts.Workers}
	isCommon := make([]bool, n)
	for j := 0; j < n; j++ {
		if uint64(d.Matrix.ColCount(j)) >= base.Threshold(d.Eps[j], m) {
			isCommon[j] = true
		}
	}

	table := &TableResult{
		ID:     "ablation-mixing",
		Title:  "Common-identity attack confidence with and without identity mixing",
		Header: []string{"configuration", "published-commons(avg)", "attack-confidence", "degree"},
	}
	measure := func(label string, xi float64) error {
		pickedTotal, trueTotal := 0, 0
		for rep := 0; rep < repeats; rep++ {
			cfg := base
			cfg.Seed = opts.Seed + int64(rep)*113
			cfg.XiOverride = xi
			res, err := core.Construct(d.Matrix, d.Eps, cfg)
			if err != nil {
				return err
			}
			att, err := attack.CommonIdentityAttack(attack.PublishedFrequencies(res.Published), uint64(m), isCommon)
			if err != nil {
				return err
			}
			pickedTotal += len(att.Picked)
			trueTotal += att.TrueCommons
		}
		conf := 0.0
		if pickedTotal > 0 {
			conf = float64(trueTotal) / float64(pickedTotal)
		}
		degree := attack.DegreeNoGuarantee
		switch {
		case conf >= 1-1e-9:
			degree = attack.DegreeNoProtect
		case xi > 1e-6 && conf <= (1-xi)*1.25:
			degree = attack.DegreeEpsilonPrivate
		}
		table.Rows = append(table.Rows, []string{
			label,
			fmt.Sprintf("%.1f", float64(pickedTotal)/float64(repeats)),
			fmt.Sprintf("%.3f", conf),
			degree.String(),
		})
		return nil
	}
	if err := measure("mixing on (ξ=0.8)", 0.8); err != nil {
		return nil, err
	}
	if err := measure("mixing off (λ≈0)", 1e-12); err != nil {
		return nil, err
	}
	return table, nil
}

// rebuildDrift is the ε every sampled identity asks for at each snapshot of
// AblationRebuild's same-seed series: it wanders around 0.8, so β_j differs
// from epoch to epoch while the identity's membership does not.
var rebuildDrift = [...]float64{0.8, 0.85, 0.75, 0.9, 0.7, 0.8}

// AblationRebuild quantifies what republication costs (Section III-C's
// repeated-attack remark) under two regimes. Rebuilt with a fresh seed each
// time, every epoch re-flips every coin: an attacker intersecting the
// snapshots watches the noise thin out and their confidence climb toward
// certainty. Rebuilt with the same seed — the same provider keys — the
// publication coins are fixed per cell and monotone in β, so the snapshots
// nest: however many the attacker collects while ε drifts (and while one
// more owner, outside the sample, gains a provider every epoch), the
// intersection is the one snapshot with the smallest β and the confidence
// stays under 1 − (the smallest ε the owner ever asked for).
func AblationRebuild(opts Options) (*TableResult, error) {
	m, freq, samples := 10000, 20, 20
	if opts.Quick {
		m, freq, samples = 1000, 10, 10
	}
	const epsVal = 0.8
	// Column `samples` is the churning owner; the attack never targets it.
	d, err := workload.GenerateFixed(workload.FixedConfig{
		Providers:   m,
		Frequencies: repeatInt(freq, samples+1),
		Eps:         epsSlice(samples+1, epsVal),
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Workers: opts.Workers}
	const rebuilds = len(rebuildDrift)
	fresh := make([]*bitmat.Matrix, 0, rebuilds)
	sticky := make([]*bitmat.Matrix, 0, rebuilds)
	churned := d.Matrix.Clone()
	for r := 0; r < rebuilds; r++ {
		cfg.Seed = opts.Seed + int64(r+1)
		res, err := core.Construct(d.Matrix, d.Eps, cfg)
		if err != nil {
			return nil, err
		}
		fresh = append(fresh, res.Published)

		cfg.Seed = opts.Seed + 1
		eps := epsSlice(samples+1, rebuildDrift[r])
		eps[samples] = epsVal
		res, err = core.Construct(churned, eps, cfg)
		if err != nil {
			return nil, err
		}
		sticky = append(sticky, res.Published)
		for i := 0; i < m; i++ { // the churning owner gains one provider
			if !churned.Get(i, samples) {
				churned.Set(i, samples, true)
				break
			}
		}
	}
	table := &TableResult{
		ID:    "ablation-rebuild",
		Title: fmt.Sprintf("Intersection attack vs number of rebuilds: fresh seed at ε=%.1f, and one seed while ε drifts (m=%d)", epsVal, m),
		Header: []string{"snapshots", "avg-survivors", "attack-confidence", "bound(1-ε)",
			"same-seed-survivors", "same-seed-confidence", "bound(1-min ε)"},
	}
	minEps := 1.0
	for k := 1; k <= rebuilds; k++ {
		minEps = min(minEps, rebuildDrift[k-1])
		row := []string{fmt.Sprintf("%d", k)}
		for _, series := range []struct {
			snapshots []*bitmat.Matrix
			bound     float64
		}{{fresh, 1 - epsVal}, {sticky, 1 - minEps}} {
			var confSum, survSum float64
			for j := 0; j < samples; j++ {
				res, err := attack.Intersect(d.Matrix, series.snapshots[:k], j)
				if err != nil {
					return nil, err
				}
				confSum += res.Confidence
				survSum += float64(res.Survivors)
			}
			row = append(row,
				fmt.Sprintf("%.1f", survSum/float64(samples)),
				fmt.Sprintf("%.3f", confSum/float64(samples)),
				fmt.Sprintf("%.3f", series.bound))
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// AblationC sweeps the coordinator count c for the secure pipeline on a
// fixed small network, reporting the collusion-tolerance price.
func AblationC(opts Options) (*TableResult, error) {
	m, n := 12, 6
	cs := []int{2, 3, 4, 5}
	if opts.Quick {
		cs = []int{2, 3, 4}
	}
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: m, Owners: n, Exponent: 1.1, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	table := &TableResult{
		ID:     "ablation-c",
		Title:  fmt.Sprintf("Secure construction cost vs coordinator count (m=%d, n=%d)", m, n),
		Header: []string{"c", "tolerates", "mpc-and-gates", "mpc-bytes", "secsum-msgs", "wall-time-ms"},
	}
	for _, c := range cs {
		cfg := core.Config{
			Policy: mathx.PolicyChernoff, Gamma: 0.9,
			Mode: core.ModeSecure, C: c, Seed: opts.Seed + int64(c), Workers: opts.Workers,
		}
		start := time.Now()
		res, err := core.Construct(d.Matrix, d.Eps, cfg)
		if err != nil {
			return nil, fmt.Errorf("c=%d: %w", c, err)
		}
		dur := time.Since(start)
		s := res.Secure
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", c),
			fmt.Sprintf("%d colluders", c-1),
			fmt.Sprintf("%d", s.CountBelowCircuit.AndGates+s.RevealCircuit.AndGates),
			fmt.Sprintf("%d", s.MPC.Bytes),
			fmt.Sprintf("%d", s.SecSum.Messages),
			fmt.Sprintf("%.2f", float64(dur.Microseconds())/1000),
		})
	}
	return table, nil
}

// Command eppi-attack mounts the threat-model attacks against a freshly
// constructed index over a synthetic network and reports the attacker's
// measured confidence:
//
//	eppi-attack -kind primary      # pick-a-listed-provider attack (§II-B)
//	eppi-attack -kind common       # common-identity attack (§II-B)
//	eppi-attack -kind rebuild      # intersection across index rebuilds
//	eppi-attack -kind estimate     # β-inversion frequency estimation
//	eppi-attack -kind all
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"repro/internal/attack"
	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/workload"
)

// mixingXi is the mixing target ξ of the attacked index: with three
// planted commons, it is what gives the common-identity attack decoys.
const mixingXi = 0.8

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eppi-attack:", err)
		os.Exit(1)
	}
}

type lab struct {
	out   io.Writer
	data  *workload.Dataset
	cfg   core.Config
	index *core.Result
	m, n  int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eppi-attack", flag.ContinueOnError)
	kind := fs.String("kind", "all", "attack: primary|common|rebuild|estimate|all")
	providers := fs.Int("providers", 1000, "number of providers m")
	owners := fs.Int("owners", 60, "number of owner identities n")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *kind {
	case "primary", "common", "rebuild", "estimate", "all":
	default:
		return fmt.Errorf("unknown attack kind %q", *kind)
	}

	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers:    *providers,
		Owners:       *owners,
		Exponent:     1.2,
		MaxFrequency: *providers / 10,
		EpsLow:       0.3,
		EpsHigh:      0.9,
		Seed:         *seed,
	})
	if err != nil {
		return err
	}
	// Plant a few true commons so the common-identity attack has victims.
	for j := 0; j < 3 && j < *owners; j++ {
		for i := 0; i < *providers; i++ {
			d.Matrix.Set(i, j, true)
		}
	}
	cfg := core.Config{
		Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted,
		Seed: *seed + 1, XiOverride: mixingXi,
	}
	res, err := core.Construct(d.Matrix, d.Eps, cfg)
	if err != nil {
		return err
	}
	l := &lab{out: out, data: d, cfg: cfg, index: res, m: *providers, n: *owners}
	fmt.Fprintf(out, "target: ε-PPI over m=%d providers, n=%d owners (ξ=%.2f, %d true commons)\n\n",
		*providers, *owners, res.Xi, res.CommonCount)

	if *kind == "primary" || *kind == "all" {
		if err := l.primary(*seed); err != nil {
			return err
		}
	}
	if *kind == "common" || *kind == "all" {
		if err := l.common(); err != nil {
			return err
		}
	}
	if *kind == "rebuild" || *kind == "all" {
		if err := l.rebuild(); err != nil {
			return err
		}
	}
	if *kind == "estimate" || *kind == "all" {
		if err := l.estimate(); err != nil {
			return err
		}
	}
	return nil
}

func (l *lab) primary(seed int64) error {
	rng := rand.New(rand.NewSource(seed + 2))
	victims := 0
	worstExcess := math.Inf(-1)
	var worstConf, worstEps float64
	for j := 0; j < l.n; j++ {
		if uint64(l.data.Matrix.ColCount(j)) >= l.index.Thresholds[j] {
			continue // commons are the common-identity attack's business
		}
		victims++
		conf, err := attack.PrimaryConfidence(l.data.Matrix, l.index.Published, j)
		if err != nil {
			return err
		}
		if excess := conf - (1 - l.data.Eps[j]); excess > worstExcess {
			worstExcess, worstConf, worstEps = excess, conf, l.data.Eps[j]
		}
	}
	trialHits, trials := 0, 2000
	for i := 0; i < trials; i++ {
		j := rng.Intn(l.n)
		if ok, attackable := attack.PrimaryAttackTrial(rng, l.data.Matrix, l.index.Published, j); attackable && ok {
			trialHits++
		}
	}
	fmt.Fprintf(l.out, "PRIMARY ATTACK over %d non-common victims\n", victims)
	fmt.Fprintf(l.out, "  worst guarantee slack: confidence %.3f vs bound %.3f (excess %.3f)\n",
		worstConf, 1-worstEps, worstExcess)
	fmt.Fprintf(l.out, "  random-victim trials: %d/%d succeeded (%.3f)\n\n", trialHits, trials, float64(trialHits)/float64(trials))
	return nil
}

func (l *lab) common() error {
	isCommon := make([]bool, l.n)
	for j := 0; j < l.n; j++ {
		isCommon[j] = uint64(l.data.Matrix.ColCount(j)) >= l.index.Thresholds[j]
	}
	res, err := attack.CommonIdentityAttack(
		attack.PublishedFrequencies(l.index.Published), uint64(l.m), isCommon)
	if err != nil {
		return err
	}
	fmt.Fprintf(l.out, "COMMON-IDENTITY ATTACK\n")
	fmt.Fprintf(l.out, "  published-as-common: %d identities, truly common: %d\n", len(res.Picked), res.TrueCommons)
	fmt.Fprintf(l.out, "  attacker confidence: %.3f (target ≤ 1−ξ = %.3f)\n\n", res.Confidence, 1-l.index.Xi)
	return nil
}

func (l *lab) rebuild() error {
	snapshots := []*bitmat.Matrix{l.index.Published}
	fmt.Fprintf(l.out, "REBUILD / INTERSECTION ATTACK (victim: first non-common identity)\n")
	victim := -1
	for j := 0; j < l.n; j++ {
		if uint64(l.data.Matrix.ColCount(j)) < l.index.Thresholds[j] && l.data.Matrix.ColCount(j) > 0 && !l.index.Hidden[j] {
			victim = j
			break
		}
	}
	if victim < 0 {
		fmt.Fprintln(l.out, "  no revealed victim available")
		return nil
	}
	for k := 2; k <= 4; k++ {
		cfg := l.cfg
		cfg.Seed = l.cfg.Seed + int64(k)*97
		res, err := core.Construct(l.data.Matrix, l.data.Eps, cfg)
		if err != nil {
			return err
		}
		snapshots = append(snapshots, res.Published)
	}
	for k := 1; k <= len(snapshots); k++ {
		inter, err := attack.Intersect(l.data.Matrix, snapshots[:k], victim)
		if err != nil {
			return err
		}
		fmt.Fprintf(l.out, "  %d snapshot(s): %d survivors, confidence %.3f\n", k, inter.Survivors, inter.Confidence)
	}
	fmt.Fprintln(l.out, "  (the deployed index is static precisely to deny the attacker extra snapshots)")
	fmt.Fprintln(l.out)
	return nil
}

func (l *lab) estimate() error {
	rep, err := attack.EstimateAll(l.data.Matrix, l.index.Published, l.index.Betas)
	if err != nil {
		return err
	}
	fmt.Fprintf(l.out, "FREQUENCY-ESTIMATION ATTACK (β inversion)\n")
	fmt.Fprintf(l.out, "  revealed identities attacked: %d (mean |f̂−f| = %.1f providers)\n",
		rep.RevealedCount, rep.RevealedMeanError)
	fmt.Fprintf(l.out, "  hidden identities (estimator blind): %d\n", rep.BlindCount)
	return nil
}

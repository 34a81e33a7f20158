package attack

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/mathx"
)

func TestIntersectValidation(t *testing.T) {
	truth := bitmat.MustNew(4, 1)
	if _, err := Intersect(truth, nil, 0); err == nil {
		t.Fatal("empty snapshots accepted")
	}
	if _, err := Intersect(truth, []*bitmat.Matrix{bitmat.MustNew(3, 1)}, 0); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestIntersectSingleSnapshot(t *testing.T) {
	truth := bitmat.MustNew(4, 1)
	truth.Set(0, 0, true)
	pub := truth.Clone()
	pub.Set(1, 0, true)
	res, err := Intersect(truth, []*bitmat.Matrix{pub}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 2 || res.TruePositives != 1 || res.Confidence != 0.5 {
		t.Fatalf("result = %+v", res)
	}
}

// The attack's teeth: fresh noise across rebuilds thins out, confidence
// climbs toward 1 while a single snapshot stays near 1-ε.
func TestIntersectionSharpensAcrossRebuilds(t *testing.T) {
	m, freq := 2000, 10
	truth := bitmat.MustNew(m, 1)
	for i := 0; i < freq; i++ {
		truth.Set(i, 0, true)
	}
	eps := []float64{0.8}
	cfg := core.Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted}
	var snapshots []*bitmat.Matrix
	for rebuild := 0; rebuild < 5; rebuild++ {
		cfg.Seed = int64(rebuild + 1)
		res, err := core.Construct(truth, eps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, res.Published)
	}
	one, err := Intersect(truth, snapshots[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	five, err := Intersect(truth, snapshots, 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.Confidence > 1-eps[0]+0.1 {
		t.Fatalf("single snapshot confidence %v already above the ε bound", one.Confidence)
	}
	if five.Confidence < 0.9 {
		t.Fatalf("five-rebuild intersection confidence %v, want ≈ 1 (attack must succeed)", five.Confidence)
	}
	if five.TruePositives != freq {
		t.Fatalf("true positives lost in intersection: %d", five.TruePositives)
	}
}

// A static index (identical snapshots) gains the attacker nothing.
func TestStaticIndexResistsIntersection(t *testing.T) {
	m, freq := 500, 5
	truth := bitmat.MustNew(m, 1)
	for i := 0; i < freq; i++ {
		truth.Set(i, 0, true)
	}
	cfg := core.Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: 7}
	res, err := core.Construct(truth, []float64{0.8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := []*bitmat.Matrix{res.Published, res.Published, res.Published}
	inter, err := Intersect(truth, same, 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Intersect(truth, same[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Confidence != single.Confidence {
		t.Fatalf("static index leaked under repetition: %v vs %v", inter.Confidence, single.Confidence)
	}
}

// Republished with the same seed while the victim's ε (hence β) drifts and
// another owner gains a provider every epoch, the publication coins are
// fixed per cell and monotone in β: the victim's snapshots nest, so
// intersecting all of them yields exactly the one snapshot built at the
// smallest β, and no prefix of the series gives the attacker more
// confidence than that snapshot alone. Red when Equation 2 draws its coins
// from a stream: the neighbour's new true bit is one draw fewer, and every
// later cell of the tile — the victim's column included — is re-flipped.
func TestSameSeedRebuildsLeakOnlyTheWeakestEpoch(t *testing.T) {
	const m, freq, churner, victim, bystander = 1000, 10, 0, 1, 2
	truth := bitmat.MustNew(m, 3)
	for j := 0; j < 3; j++ {
		for i := 0; i < freq; i++ {
			truth.Set((j*37+i*11)%m, j, true)
		}
	}
	cfg := core.Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: 7}
	var snaps []*bitmat.Matrix
	weakest, minBeta := -1, 2.0
	churned := truth.Clone()
	for r, e := range []float64{0.8, 0.85, 0.75, 0.9, 0.7, 0.8} {
		churned.Set(500+r, churner, true)
		res, err := core.Construct(churned, []float64{0.6, e, 0.6}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, res.Published)
		if res.Betas[victim] < minBeta {
			weakest, minBeta = r, res.Betas[victim]
		}
	}
	single, err := Intersect(truth, snaps[weakest:weakest+1], victim)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(snaps); k++ {
		inter, err := Intersect(truth, snaps[:k], victim)
		if err != nil {
			t.Fatal(err)
		}
		if inter.Confidence > single.Confidence {
			t.Errorf("%d snapshots: confidence %v exceeds the weakest epoch's %v", k, inter.Confidence, single.Confidence)
		}
		if k == len(snaps) && inter.Survivors != single.Survivors {
			t.Errorf("all snapshots: %d survivors, the weakest epoch alone has %d", inter.Survivors, single.Survivors)
		}
	}
	// The bystander changed neither ε nor membership: its column never flaps.
	for _, s := range snaps[1:] {
		for i := 0; i < m; i++ {
			if s.Get(i, bystander) != snaps[0].Get(i, bystander) {
				t.Fatalf("unchanged column flapped at provider %d", i)
			}
		}
	}
}

func TestIntersectRandomisedProperty(t *testing.T) {
	// Survivors shrink monotonically as snapshots accumulate.
	rng := rand.New(rand.NewSource(9))
	m := 300
	truth := bitmat.MustNew(m, 1)
	truth.Set(0, 0, true)
	cfg := core.Config{Policy: mathx.PolicyBasic, Mode: core.ModeTrusted}
	var snaps []*bitmat.Matrix
	prev := m + 1
	for k := 1; k <= 4; k++ {
		cfg.Seed = rng.Int63()
		res, err := core.Construct(truth, []float64{0.7}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, res.Published)
		inter, err := Intersect(truth, snaps, 0)
		if err != nil {
			t.Fatal(err)
		}
		if inter.Survivors > prev {
			t.Fatalf("survivors grew from %d to %d at k=%d", prev, inter.Survivors, k)
		}
		prev = inter.Survivors
	}
}

package attack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
)

func TestPrimaryConfidence(t *testing.T) {
	truth := bitmat.MustNew(4, 2)
	truth.Set(0, 0, true)
	pub := truth.Clone()
	pub.Set(1, 0, true)
	pub.Set(2, 0, true) // 1 true, 2 false positives
	conf, err := PrimaryConfidence(truth, pub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(conf-1.0/3.0) > 1e-12 {
		t.Fatalf("confidence = %v, want 1/3", conf)
	}
	// Empty column: nothing to attack.
	conf, err = PrimaryConfidence(truth, pub, 1)
	if err != nil || conf != 0 {
		t.Fatalf("empty column: %v, %v", conf, err)
	}
	// No noise: certain attack.
	pubExact := truth.Clone()
	conf, err = PrimaryConfidence(truth, pubExact, 0)
	if err != nil || conf != 1 {
		t.Fatalf("no-noise confidence = %v", conf)
	}
	if _, err := PrimaryConfidence(truth, bitmat.MustNew(3, 2), 0); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestPrimaryAttackTrialMatchesConfidence(t *testing.T) {
	truth := bitmat.MustNew(10, 1)
	truth.Set(0, 0, true)
	truth.Set(1, 0, true)
	pub := truth.Clone()
	for i := 2; i < 10; i++ {
		pub.Set(i, 0, true) // 2 true among 10 published
	}
	rng := rand.New(rand.NewSource(1))
	hits, trials := 0, 20000
	for i := 0; i < trials; i++ {
		ok, attackable := PrimaryAttackTrial(rng, truth, pub, 0)
		if !attackable {
			t.Fatal("column should be attackable")
		}
		if ok {
			hits++
		}
	}
	rate := float64(hits) / float64(trials)
	if math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("empirical success %v, want ≈ 0.2", rate)
	}
	// Unattackable column.
	empty := bitmat.MustNew(10, 1)
	if _, attackable := PrimaryAttackTrial(rng, empty, empty, 0); attackable {
		t.Fatal("empty column reported attackable")
	}
}

func TestEpsilonPrivate(t *testing.T) {
	truth := bitmat.MustNew(10, 1)
	truth.Set(0, 0, true)
	pub := truth.Clone()
	for i := 1; i < 5; i++ {
		pub.Set(i, 0, true) // confidence 0.2
	}
	ok, err := EpsilonPrivate(truth, pub, 0, 0.8)
	if err != nil || !ok {
		t.Fatalf("ε=0.8 should be met: %v %v", ok, err)
	}
	ok, err = EpsilonPrivate(truth, pub, 0, 0.9)
	if err != nil || ok {
		t.Fatalf("ε=0.9 should fail: %v %v", ok, err)
	}
}

func TestCommonIdentityAttack(t *testing.T) {
	signal := []uint64{100, 100, 100, 5, 2}
	isCommon := []bool{true, false, true, false, false}
	res, err := CommonIdentityAttack(signal, 100, isCommon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Picked) != 3 || res.TrueCommons != 2 {
		t.Fatalf("result = %+v", res)
	}
	if math.Abs(res.Confidence-2.0/3.0) > 1e-12 {
		t.Fatalf("confidence = %v, want 2/3", res.Confidence)
	}
	// Nothing reaches threshold.
	res, err = CommonIdentityAttack(signal, 1000, isCommon)
	if err != nil || len(res.Picked) != 0 || res.Confidence != 0 {
		t.Fatalf("high threshold: %+v, %v", res, err)
	}
	if _, err := CommonIdentityAttack(signal, 1, isCommon[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCommonAttackOnSSPPILeak(t *testing.T) {
	// With the exact leaked frequencies, the attacker picks true commons
	// with certainty — the NoProtect scenario.
	leaked := []uint64{100, 3, 100, 7}
	isCommon := []bool{true, false, true, false}
	res, err := CommonIdentityAttack(leaked, 100, isCommon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence != 1 {
		t.Fatalf("leak-based attack confidence = %v, want 1", res.Confidence)
	}
}

func TestCommonAttackOnMixedEPPI(t *testing.T) {
	// ε-PPI publishes mixed identities at full frequency: with 1 true
	// common and 4 mixed-in, confidence collapses to 1/5 = 1 − ξ (ξ=0.8).
	published := []uint64{50, 50, 50, 50, 50, 3, 2}
	isCommon := []bool{true, false, false, false, false, false, false}
	res, err := CommonIdentityAttack(published, 50, isCommon)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Confidence-0.2) > 1e-12 {
		t.Fatalf("mixed attack confidence = %v, want 0.2", res.Confidence)
	}
}

func TestPublishedFrequencies(t *testing.T) {
	m := bitmat.MustNew(3, 2)
	m.Set(0, 0, true)
	m.Set(1, 0, true)
	got := PublishedFrequencies(m)
	if got[0] != 2 || got[1] != 0 {
		t.Fatalf("frequencies = %v", got)
	}
}

func TestDegreeString(t *testing.T) {
	names := map[Degree]string{
		DegreeUnleaked:       "UNLEAKED",
		DegreeEpsilonPrivate: "ε-PRIVATE",
		DegreeNoGuarantee:    "NO GUARANTEE",
		DegreeNoProtect:      "NO PROTECT",
		Degree(99):           "degree(99)",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("Degree(%d) = %q, want %q", d, d.String(), want)
		}
	}
}

func TestClassifyPrimary(t *testing.T) {
	// All identities meet their ε.
	d, err := ClassifyPrimary([]float64{0.2, 0.5}, []float64{0.8, 0.5}, 0)
	if err != nil || d != DegreeEpsilonPrivate {
		t.Fatalf("got %v, %v", d, err)
	}
	// One certain attack despite requested protection.
	d, err = ClassifyPrimary([]float64{1.0, 0.2}, []float64{0.5, 0.8}, 0)
	if err != nil || d != DegreeNoProtect {
		t.Fatalf("got %v, %v", d, err)
	}
	// Missed guarantee but not certain.
	d, err = ClassifyPrimary([]float64{0.5}, []float64{0.8}, 0)
	if err != nil || d != DegreeNoGuarantee {
		t.Fatalf("got %v, %v", d, err)
	}
	// Slack absorbs a small excess.
	d, err = ClassifyPrimary([]float64{0.23}, []float64{0.8}, 0.05)
	if err != nil || d != DegreeEpsilonPrivate {
		t.Fatalf("slack case got %v, %v", d, err)
	}
	if _, err := ClassifyPrimary([]float64{1}, nil, 0); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

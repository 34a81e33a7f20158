package privacy

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// handInput builds a 4-provider, 4-identity scenario with every case:
//
//	col 0: revealed, 1 true + 1 false positive, ε=0.4 → fp=0.5 ok
//	col 1: revealed, 2 true + 0 false positives, ε=0.5 → fp=0 VIOLATION
//	col 2: hidden all-ones, 4 true (true common), ε=0.95
//	col 3: hidden all-ones, 1 true (mixed-in decoy), ε=0.05
func handInput() Input {
	truth := bitmat.MustNew(4, 4)
	truth.Set(0, 0, true)
	truth.Set(0, 1, true)
	truth.Set(1, 1, true)
	for r := 0; r < 4; r++ {
		truth.Set(r, 2, true)
	}
	truth.Set(2, 3, true)

	pub := truth.Clone()
	pub.Set(3, 0, true) // the false positive of col 0
	for r := 0; r < 4; r++ {
		pub.Set(r, 2, true)
		pub.Set(r, 3, true)
	}

	return Input{
		Truth:      truth,
		Published:  pub,
		Names:      []string{"a", "b", "c", "d"},
		Eps:        []float64{0.4, 0.5, 0.95, 0.05},
		Thresholds: []uint64{5, 5, 3, 5}, // only col 2 reaches its threshold
		Hidden:     []bool{false, false, true, true},
		Policy:     "chernoff",
		Gamma:      0.9,
		Lambda:     0.25,
		Xi:         0.5,
	}
}

func TestComputeHandScenario(t *testing.T) {
	r, det, err := Compute(handInput())
	if err != nil {
		t.Fatal(err)
	}
	if r.Providers != 4 || r.Identities != 4 {
		t.Fatalf("dims: %d providers, %d identities", r.Providers, r.Identities)
	}
	if r.Commons != 1 {
		t.Errorf("Commons = %d, want 1", r.Commons)
	}
	if r.PublishedCommons != 2 || r.MixedIn != 1 {
		t.Errorf("PublishedCommons = %d MixedIn = %d, want 2 / 1", r.PublishedCommons, r.MixedIn)
	}
	if r.MixRatio != 0.5 {
		t.Errorf("MixRatio = %v, want 0.5", r.MixRatio)
	}
	if r.ViolationCount != 1 || len(r.Violations) != 1 {
		t.Fatalf("violations: count %d, list %v", r.ViolationCount, r.Violations)
	}
	// The public violation entry is redacted to name + ε: the exact
	// counts would reveal the violator's true provider count.
	v := r.Violations[0]
	if v.Name != "b" || v.Epsilon != 0.5 {
		t.Errorf("violation = %+v", v)
	}
	if len(det.Violations) != 1 {
		t.Fatalf("detail violations = %+v", det.Violations)
	}
	dv := det.Violations[0]
	if dv.Name != "b" || dv.Epsilon != 0.5 || dv.AchievedFP != 0 || dv.Published != 2 || dv.FalsePositives != 0 {
		t.Errorf("detail violation = %+v", dv)
	}
	if r.SuccessRatio != 0.5 {
		t.Errorf("SuccessRatio = %v, want 0.5 (1 of 2 revealed)", r.SuccessRatio)
	}
	// Col 0: ε=0.4 → decile 4; achieved fp 0.5.
	b4 := r.Buckets[4]
	if b4.Identities != 1 || b4.AchievedFP != 0.5 || b4.GuaranteedFP != 0.4 || b4.Violations != 0 {
		t.Errorf("bucket 4 = %+v", b4)
	}
	// Col 1: ε=0.5 → decile 5; achieved fp 0, violated.
	b5 := r.Buckets[5]
	if b5.Identities != 1 || b5.AchievedFP != 0 || b5.Violations != 1 || b5.MinFP != 0 {
		t.Errorf("bucket 5 = %+v", b5)
	}
	// Hidden identities land in their decile's hidden count, not the
	// revealed histogram.
	if r.Buckets[9].Hidden != 1 || r.Buckets[0].Hidden != 1 {
		t.Errorf("hidden counts: bucket9 %+v bucket0 %+v", r.Buckets[9], r.Buckets[0])
	}
	// The identity→decile map lives in the operator detail only.
	if got := []uint8{det.IdentityBuckets["a"], det.IdentityBuckets["b"], det.IdentityBuckets["c"], det.IdentityBuckets["d"]}; got[0] != 4 || got[1] != 5 || got[2] != 9 || got[3] != 0 {
		t.Errorf("IdentityBuckets = %v", got)
	}
}

// TestReportCarriesNoPerIdentityData pins the redaction the privacy
// model depends on: the serialized public report must not contain the
// identity→decile map or per-violation counts, in field name or value.
func TestReportCarriesNoPerIdentityData(t *testing.T) {
	r, _, err := Compute(handInput())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Seal(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	// achieved_fp appears only in the per-decile aggregates; the
	// per-identity forms live in the detail document alone.
	for _, leak := range []string{"identity_buckets", "false_positives"} {
		if strings.Contains(string(raw), leak) {
			t.Errorf("sealed public report contains %q:\n%s", leak, raw)
		}
	}
	var asMap map[string]any
	if err := json.Unmarshal(raw, &asMap); err != nil {
		t.Fatal(err)
	}
	for _, v := range asMap["violations"].([]any) {
		entry := v.(map[string]any)
		for k := range entry {
			if k != "name" && k != "epsilon" {
				t.Errorf("public violation entry carries %q: %v", k, entry)
			}
		}
	}
}

// TestBucketMeansSkipEmptyColumns pins the denominator of the bucket
// statistics: the achieved-FP mean and minimum cover only revealed
// identities with published positives, and a bucket with none of them
// reports MinFP 0 instead of its init value 1.
func TestBucketMeansSkipEmptyColumns(t *testing.T) {
	truth := bitmat.MustNew(3, 3)
	truth.Set(0, 0, true)
	pub := truth.Clone()
	pub.Set(1, 0, true) // col 0: 1 true + 1 false → rate 0.5
	// col 1: empty, same decile as col 0; col 2: empty, its own decile.
	r, _, err := Compute(Input{
		Truth:     truth,
		Published: pub,
		Names:     []string{"a", "b", "c"},
		Eps:       []float64{0.45, 0.42, 0.85},
	})
	if err != nil {
		t.Fatal(err)
	}
	b4 := r.Buckets[4]
	if b4.Identities != 2 || b4.AchievedFP != 0.5 || b4.MinFP != 0.5 {
		t.Errorf("bucket 4 = %+v, want mean/min 0.5 over the one identity with positives", b4)
	}
	b8 := r.Buckets[8]
	if b8.Identities != 1 || b8.AchievedFP != 0 || b8.MinFP != 0 {
		t.Errorf("bucket 8 = %+v, want zeroed FP stats (no published positives)", b8)
	}
}

func TestComputeDerivesHiddenFromAllOnes(t *testing.T) {
	in := handInput()
	in.Hidden = nil
	r, _, err := Compute(in)
	if err != nil {
		t.Fatal(err)
	}
	if r.PublishedCommons != 2 || r.MixedIn != 1 {
		t.Errorf("derived hidden: PublishedCommons = %d MixedIn = %d", r.PublishedCommons, r.MixedIn)
	}
}

func TestComputeRejectsRecallBreak(t *testing.T) {
	in := handInput()
	in.Published = in.Published.Clone()
	in.Published.Set(0, 0, false) // drop a true positive
	if _, _, err := Compute(in); !errors.Is(err, ErrRecall) {
		t.Fatalf("err = %v, want ErrRecall", err)
	}
}

func TestComputeShapeErrors(t *testing.T) {
	in := handInput()
	in.Eps = in.Eps[:2]
	if _, _, err := Compute(in); err == nil {
		t.Error("short eps accepted")
	}
	in = handInput()
	in.Thresholds = in.Thresholds[:1]
	if _, _, err := Compute(in); err == nil {
		t.Error("short thresholds accepted")
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		eps  float64
		want int
	}{{0, 0}, {0.05, 0}, {0.1, 1}, {0.95, 9}, {1.0, 9}, {-1, 0}, {2, 9}}
	for _, c := range cases {
		if got := BucketIndex(c.eps); got != c.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", c.eps, got, c.want)
		}
	}
	if got := BucketLabel(3); got != "0.3-0.4" {
		t.Errorf("BucketLabel(3) = %q", got)
	}
}

// TestChernoffConstructionMeetsBound is the report-side restatement of
// Theorem 3.1: a Chernoff-policy construction must audit clean — the
// success ratio reaches γ, and for this deterministic seed the violation
// list is empty.
func TestChernoffConstructionMeetsBound(t *testing.T) {
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: 200, Owners: 150, Exponent: 1.0, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: 7}
	res, err := core.Construct(d.Matrix, d.Eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Compute(Input{
		Truth:      d.Matrix,
		Published:  res.Published,
		Names:      d.Names,
		Eps:        d.Eps,
		Thresholds: res.Thresholds,
		Hidden:     res.Hidden,
		Policy:     cfg.Policy.String(),
		Gamma:      cfg.Gamma,
		Lambda:     res.Lambda,
		Xi:         res.Xi,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.SuccessRatio < cfg.Gamma {
		t.Errorf("SuccessRatio = %v, below γ = %v", r.SuccessRatio, cfg.Gamma)
	}
	if r.ViolationCount != 0 {
		t.Errorf("ViolationCount = %d with violations %v", r.ViolationCount, r.Violations)
	}
	if r.Commons != res.CommonCount {
		t.Errorf("Commons = %d, construction counted %d", r.Commons, res.CommonCount)
	}
}

func TestFileRoundTrip(t *testing.T) {
	r, _, err := Compute(handInput())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteFile(dir, r, 42); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 {
		t.Errorf("Epoch = %d, want 42", got.Epoch)
	}
	if got.ViolationCount != r.ViolationCount || got.MixRatio != r.MixRatio || len(got.Buckets) != NumBuckets {
		t.Errorf("round trip mangled report: %+v", got)
	}
	if got.Checksum == "" {
		t.Error("read report lost its checksum")
	}
}

func TestFileTamperDetected(t *testing.T) {
	r, _, err := Compute(handInput())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteFile(dir, r, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the document body (violation_count 1 → 2).
	tampered := strings.Replace(string(raw), `"violation_count": 1`, `"violation_count": 2`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found in report")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(dir); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestDecodeRejectsMissingChecksumAndBadVersion(t *testing.T) {
	if _, err := Decode([]byte(`{"version": 1}`)); !errors.Is(err, ErrNoChecksum) {
		t.Errorf("no checksum: err = %v", err)
	}
	if _, err := Decode([]byte(`{"version": 99, "checksum": "00000000"}`)); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: err = %v", err)
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestDiff(t *testing.T) {
	a, _, err := Compute(handInput())
	if err != nil {
		t.Fatal(err)
	}
	a.Epoch = 1
	in := handInput()
	in.Published = in.Published.Clone()
	// Fix col 1's violation: 2 true + 2 false positives → fp rate 0.5 = ε.
	in.Published.Set(2, 1, true)
	in.Published.Set(3, 1, true)
	b, _, err := Compute(in)
	if err != nil {
		t.Fatal(err)
	}
	b.Epoch = 2
	d := Diff(a, b)
	if d.FromEpoch != 1 || d.ToEpoch != 2 {
		t.Errorf("epochs = %d → %d", d.FromEpoch, d.ToEpoch)
	}
	if d.Violations != [2]int{1, 0} {
		t.Errorf("Violations = %v, want [1 0]", d.Violations)
	}
	if d.SuccessRatio[1] != 1 {
		t.Errorf("new SuccessRatio = %v, want 1", d.SuccessRatio[1])
	}
	if d.BucketFP[5][0] != 0 || d.BucketFP[5][1] == 0 {
		t.Errorf("bucket 5 FP = %v", d.BucketFP[5])
	}
}

func TestExportMetrics(t *testing.T) {
	r, _, err := Compute(handInput())
	if err != nil {
		t.Fatal(err)
	}
	r.Epoch = 3
	reg := metrics.NewRegistry()
	Export(reg, r)
	Export(reg, r) // second install: gauges overwrite, counter accumulates
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"eppi_privacy_epoch 3",
		`eppi_privacy_fp_rate{bucket="0.4-0.5"} 0.5`,
		`eppi_privacy_fp_guaranteed{bucket="0.4-0.5"} 0.4`,
		"eppi_privacy_violations 1",
		"eppi_privacy_violations_total 2",
		"eppi_privacy_mix_ratio 0.5",
		"eppi_privacy_success_ratio 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Nil-safety.
	Export(nil, r)
	Export(reg, nil)
}

// TestDetailFileRoundTrip covers the operator-only artifact: sealed
// write, verified read, operator-only permissions, and tamper
// detection via the self-checksum.
func TestDetailFileRoundTrip(t *testing.T) {
	_, det, err := Compute(handInput())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDetailFile(dir, det, 42); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, DetailFileName)
	if info, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("detail file mode = %o, want 600 (operator-only)", perm)
	}
	got, err := ReadDetailFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 || got.IdentityBuckets["c"] != 9 || len(got.Violations) != 1 {
		t.Errorf("round trip mangled detail: %+v", got)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"b": 5`, `"b": 6`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found in detail")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDetailFile(dir); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if _, err := DecodeDetail([]byte(`{"version": 1, "identity_buckets": {}}`)); !errors.Is(err, ErrNoChecksum) {
		t.Errorf("no checksum: err = %v", err)
	}
	if _, err := DecodeDetail([]byte(`{"version": 99, "checksum": "00000000"}`)); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: err = %v", err)
	}
}

// twoPassReport and twoPassDetail are the reference sealers: the CRC of
// the encoding with Checksum blank, then the stamped document encoded a
// second time.
func twoPassReport(t *testing.T, r *Report, epoch uint64) []byte {
	t.Helper()
	cp, err := Sealed(r, epoch)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

func twoPassDetail(t *testing.T, d *Detail, epoch uint64) []byte {
	t.Helper()
	cp := *d
	cp.Epoch = epoch
	sum, err := detailChecksum(&cp)
	if err != nil {
		t.Fatal(err)
	}
	cp.Checksum = sum
	raw, err := encodeDetail(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// The one-encode seal writes exactly the two-pass writer's bytes for a
// report, a detail and an empty detail, and a stale Checksum on the input
// does not leak into either.
func TestSealMatchesTwoPassEncoding(t *testing.T) {
	r, det, err := Compute(handInput())
	if err != nil {
		t.Fatal(err)
	}
	r.Checksum, det.Checksum = "stale", "stale"
	dir := t.TempDir()
	check := func(name string, want []byte) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the two-pass encoding:\n%s\nwant\n%s", name, got, want)
		}
	}
	if err := WriteFile(dir, r, 7); err != nil {
		t.Fatal(err)
	}
	check(FileName, twoPassReport(t, r, 7))
	for _, d := range []*Detail{det, {Version: Version}} {
		if err := WriteDetailFile(dir, d, 7); err != nil {
			t.Fatal(err)
		}
		check(DetailFileName, twoPassDetail(t, d, 7))
		if _, err := ReadDetailFile(dir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadFile(dir); err != nil {
		t.Fatal(err)
	}
}

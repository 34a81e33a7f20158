package epoch

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/privacy"
	"repro/internal/workload"
)

// TestPublishedEpochGolden pins the bytes of every file a publication
// writes: a fixed seeded trusted build at 300 × 2 000, audited and
// published with its report and detail into 2 shards. The snapshot frames,
// the manifest, privacy.json and privacy_detail.json are the format the
// fleet, the mirrors and eppi-audit read, so a faster writer must produce
// them byte for byte; a deliberate format change re-pins the table.
//
// privacy.json was re-pinned once for a content change: trusted mode now
// records the public ξ (0.8997…, the largest ε over owners that can be
// common) where it recorded 0, the maximum over the true commons, of which
// this build has none. λ stays 0, so M′, the shards and the manifest hold.
func TestPublishedEpochGolden(t *testing.T) {
	published, names, rep, det := auditedBuild(t)
	root := t.TempDir()
	pub := Publisher{Root: root}
	n, err := pub.PublishWithReport(published, names, 2, rep, det)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"manifest.eppi":       "d47bbb8d",
		"shard-000.idx":       "c9cdf980",
		"shard-001.idx":       "a26f626f",
		"privacy.json":        "6baf0af3",
		"privacy_detail.json": "e35ed439",
	}
	entries, err := os.ReadDir(Dir(root, n))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("epoch dir holds %d files, want %d", len(entries), len(want))
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(Dir(root, n), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw))
		if w, ok := want[e.Name()]; !ok {
			t.Errorf("unexpected file %s", e.Name())
		} else if got != w {
			t.Errorf("%s: crc32 %s (%d bytes), want %s", e.Name(), got, len(raw), w)
		}
	}
}

// auditedBuild is the golden publication's input: a seeded trusted build
// at 300 × 2 000 and its privacy audit.
func auditedBuild(t *testing.T) (*bitmat.Matrix, []string, *privacy.Report, *privacy.Detail) {
	t.Helper()
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: 300, Owners: 2000, Exponent: 1.0, MaxFrequency: 60,
		EpsLow: 0.1, EpsHigh: 0.9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: 1}
	res, err := core.Construct(d.Matrix, d.Eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, det, err := privacy.Compute(privacy.Input{
		Truth: d.Matrix, Published: res.Published, Names: d.Names, Eps: d.Eps,
		Thresholds: res.Thresholds, Hidden: res.Hidden,
		Policy: cfg.Policy.String(), Gamma: cfg.Gamma, Lambda: res.Lambda, Xi: res.Xi,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Published, d.Names, rep, det
}

package epoch

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/index"
	"repro/internal/shard"
)

// publishPattern publishes a providers × owners matrix with a fixed
// sparse pattern as epoch 1 of a fresh store split into shards, and
// returns the store root. The snapshot size does not depend on the
// pattern: the matrix is stored as packed words.
func publishPattern(tb testing.TB, providers, owners, shards int) string {
	tb.Helper()
	published := bitmat.MustNew(providers, owners)
	names := make([]string, owners)
	for j := range names {
		names[j] = fmt.Sprintf("owner://site-%d.example.org", j)
		for i := j % 7; i < providers; i += 97 {
			published.Set(i, j, true)
		}
	}
	root := tb.TempDir()
	pub := Publisher{Root: root}
	if _, err := pub.Publish(published, names, shards); err != nil {
		tb.Fatal(err)
	}
	return root
}

// TestLoadAtAllocBound: loading one member of a set costs the member's
// read, gob's two copies of the matrix and the adopted words — no
// further full-size copy. On this fixture (member 0 is 3 204 594 bytes)
// that is 4.14× the member; reading the member again after streaming it
// through the set check, and copying its frame payload, made it 5.14×.
func TestLoadAtAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	root := publishPattern(t, 4000, 12000, 2)
	info, err := os.Stat(filepath.Join(Dir(root, 1), shard.FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 2<<20 {
		t.Fatalf("member is %d bytes; the bound needs a multi-MB member", info.Size())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv, err := LoadAt(root, 1, 0, 2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Owners() != 6000 {
		t.Fatalf("loaded %d owners, want 6000", srv.Owners())
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(info.Size())
	t.Logf("LoadAt allocated %.2f× the %d-byte member", got, info.Size())
	if got > 4.75 {
		t.Fatalf("LoadAt allocated %.2f× the %d-byte member, budget 4.75×", got, info.Size())
	}
}

// BenchmarkLoadAt loads both members of a 2-shard set, as one rollout
// does: every member checked against the manifest, each frame checked
// and decoded. It runs at both benchmark workloads' shapes, the trusted
// 4 000 × 14 336 and the secure 512 × 32 768, and reports what a node
// keeps: retained-B/owner is the live heap after a GC with both members
// loaded, minus the reading before the first load, divided by n.
func BenchmarkLoadAt(b *testing.B) {
	for _, shape := range []struct{ providers, owners int }{{4000, 14336}, {512, 32768}} {
		b.Run(fmt.Sprintf("%dx%d", shape.providers, shape.owners), func(b *testing.B) {
			root := publishPattern(b, shape.providers, shape.owners, 2)
			var members [2]*index.Server
			before := liveHeap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range members {
					srv, err := LoadAt(root, 1, k, 2)
					if err != nil {
						b.Fatal(err)
					}
					members[k] = srv
				}
			}
			b.StopTimer()
			retained := float64(liveHeap()) - float64(before)
			runtime.KeepAlive(&members)
			b.ReportMetric(retained/float64(shape.owners), "retained-B/owner")
		})
	}
}

// liveHeap returns the heap bytes still reachable after a GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLoadAtChecksEveryMember: LoadAt(k) streams the other members and
// lets LoadShard check member k on its one read, so a flipped bit, a cut
// or an appended byte in any member — its own or another — still rejects
// the set whole, with the manifest check's error class.
func TestLoadAtChecksEveryMember(t *testing.T) {
	root := t.TempDir()
	published, names := buildIndex(t, 15, 20, 1)
	pub := Publisher{Root: root}
	if _, err := pub.Publish(published, names, 2); err != nil {
		t.Fatal(err)
	}
	damage := []struct {
		name string
		want error
		edit func([]byte) []byte
	}{
		{"bit flip", index.ErrChecksum, func(b []byte) []byte {
			b[len(b)/2] ^= 0x01
			return b
		}},
		{"cut", index.ErrTruncated, func(b []byte) []byte { return b[:len(b)-1] }},
		{"appended byte", index.ErrTruncated, func(b []byte) []byte { return append(b, 0) }},
	}
	for member := 0; member < 2; member++ {
		path := filepath.Join(Dir(root, 1), shard.FileName(member))
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range damage {
			if err := os.WriteFile(path, d.edit(append([]byte(nil), intact...)), 0o644); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				if _, err := LoadAt(root, 1, k, 2); !errors.Is(err, d.want) {
					t.Errorf("member %d %s, loading %d: err = %v, want %v", member, d.name, k, err, d.want)
				}
			}
		}
		if err := os.WriteFile(path, intact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2; k++ {
		if _, err := LoadAt(root, 1, k, 2); err != nil {
			t.Fatalf("restored set, member %d: %v", k, err)
		}
	}
}

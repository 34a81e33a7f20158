package index

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitmat"
)

// siteNames returns n distinct owner names shaped like the workload's.
func siteNames(n int) []string {
	names := make([]string, n)
	for j := range names {
		names[j] = fmt.Sprintf("owner://site-%d.example.org", j)
	}
	return names
}

// TestAdoptNameIndexBytesPerOwner: the name index Adopt builds costs at
// most 16 B per owner on top of the rows and names it adopts. A table of
// 4-byte row numbers at ≤ 50 % load costs 8; a map[string]int cost 53.
func TestAdoptNameIndexBytesPerOwner(t *testing.T) {
	const n = 16384
	owners := bitmat.MustNew(n, 64)
	names := siteNames(n)
	var err error
	got := allocated(func() { _, err = Adopt(owners, names) })
	if err != nil {
		t.Fatal(err)
	}
	perOwner := float64(got) / n
	t.Logf("Adopt over %d names allocated %d B, %.2f B per owner", n, got, perOwner)
	if perOwner > 16 {
		t.Fatalf("Adopt allocated %.2f B per owner, budget 16", perOwner)
	}
}

// TestNameIndexLookup: every name is found at its row, the empty name
// and row 0 included; absent names miss, among them the empty string,
// prefixes and extensions of present names; a duplicate is refused
// with the error Adopt has always given.
func TestNameIndexLookup(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000} {
		names := siteNames(n)
		srv, err := Adopt(bitmat.MustNew(n, 3), names)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for j, name := range names {
			if got, ok := srv.rows.find(srv.names, name); !ok || got != j {
				t.Fatalf("n=%d: find(%q) = %d, %v; want %d, true", n, name, got, ok, j)
			}
			if _, err := srv.Query(name); err != nil {
				t.Fatalf("n=%d: Query(%q): %v", n, name, err)
			}
		}
		absent := []string{"", "owner://", "owner://site-", "nobody", strings.Repeat("x", 300)}
		for _, name := range names {
			absent = append(absent, name[:len(name)-1], name+"x", "x"+name)
		}
		for _, name := range absent {
			if j, ok := srv.rows.find(srv.names, name); ok {
				t.Fatalf("n=%d: absent %q found at row %d", n, name, j)
			}
			if _, err := srv.Query(name); !errors.Is(err, ErrUnknownOwner) {
				t.Fatalf("n=%d: Query(%q) err = %v, want ErrUnknownOwner", n, name, err)
			}
		}
	}

	withEmpty := []string{"", "a", "ab"}
	srv, err := Adopt(bitmat.MustNew(3, 1), withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	for j, name := range withEmpty {
		if got, ok := srv.rows.find(srv.names, name); !ok || got != j {
			t.Errorf("find(%q) = %d, %v; want %d, true", name, got, ok, j)
		}
	}

	for _, dup := range [][]string{{"a", "a"}, {"", ""}, {"a", "b", "c", "b"}} {
		_, err := Adopt(bitmat.MustNew(len(dup), 1), dup)
		want := fmt.Sprintf("index: duplicate owner name %q", dup[len(dup)-1])
		if err == nil || err.Error() != want {
			t.Errorf("Adopt(%q) err = %v, want %q", dup, err, want)
		}
	}
}

// FuzzNameIndex holds the name table to a map[string]int: over a
// deduplicated set of fuzzer-supplied names every present probe finds
// its row and every absent probe misses, and a set with a name repeated
// is refused.
func FuzzNameIndex(f *testing.F) {
	f.Add("a\x00b\x00c", "b\x00d\x00")
	f.Add("\x00\x00owner://site-1.example.org", "owner://site-1.example.or\x00owner://site-1.example.orgx")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, present, probes string) {
		ref := map[string]int{}
		var names []string
		for _, name := range strings.Split(present, "\x00") {
			if _, dup := ref[name]; !dup {
				ref[name] = len(names)
				names = append(names, name)
			}
		}
		table, err := newNameTable(names)
		if err != nil {
			t.Fatalf("distinct names %q refused: %v", names, err)
		}
		for _, probe := range append(strings.Split(probes, "\x00"), names...) {
			want, wantOK := ref[probe]
			got, ok := table.find(names, probe)
			if ok != wantOK || got != want {
				t.Fatalf("find(%q) = %d, %v; want %d, %v (names %q)", probe, got, ok, want, wantOK, names)
			}
		}
		if len(names) > 0 {
			if _, err := newNameTable(append(names, names[len(names)/2])); err == nil {
				t.Fatalf("repeated %q accepted", names[len(names)/2])
			}
		}
	})
}

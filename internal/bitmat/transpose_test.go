package bitmat

import (
	"math/rand"
	"testing"
)

// naiveTranspose64 is the obvious O(64²) per-bit reference.
func naiveTranspose64(m *[64]uint64) [64]uint64 {
	var out [64]uint64
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			if m[r]>>c&1 == 1 {
				out[c] |= 1 << r
			}
		}
	}
	return out
}

func TestTranspose64MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var m [64]uint64
		for i := range m {
			m[i] = rng.Uint64()
		}
		want := naiveTranspose64(&m)
		got := m
		Transpose64(&got)
		if got != want {
			t.Fatalf("trial %d: transpose mismatch", trial)
		}
	}
}

func TestTranspose64Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var m [64]uint64
		for i := range m {
			m[i] = rng.Uint64()
		}
		got := m
		Transpose64(&got)
		Transpose64(&got)
		if got != m {
			t.Fatalf("trial %d: double transpose is not the identity", trial)
		}
	}
}

func TestTranspose64SingleBits(t *testing.T) {
	// Every (r, c) unit matrix must land exactly at (c, r).
	for r := 0; r < 64; r += 7 {
		for c := 0; c < 64; c += 5 {
			var m [64]uint64
			m[r] = 1 << c
			Transpose64(&m)
			for i := range m {
				want := uint64(0)
				if i == c {
					want = 1 << r
				}
				if m[i] != want {
					t.Fatalf("unit (%d,%d): word %d = %#x, want %#x", r, c, i, m[i], want)
				}
			}
		}
	}
}

func BenchmarkTranspose64(b *testing.B) {
	var m [64]uint64
	rng := rand.New(rand.NewSource(3))
	for i := range m {
		m[i] = rng.Uint64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Transpose64(&m)
	}
}

func TestSelectRows(t *testing.T) {
	m := MustNew(5, 70)
	for r := 0; r < 5; r++ {
		m.Set(r, r, true)
		m.Set(r, 69-r, true)
	}
	got := m.SelectRows([]int{4, 1, 1})
	if got.Rows() != 3 || got.Cols() != 70 {
		t.Fatalf("SelectRows dims %dx%d, want 3x70", got.Rows(), got.Cols())
	}
	for k, src := range []int{4, 1, 1} {
		for c := 0; c < 70; c++ {
			if got.Get(k, c) != m.Get(src, c) {
				t.Fatalf("row %d (source %d) differs at column %d", k, src, c)
			}
		}
	}
	got.Set(0, 0, true)
	if m.Get(4, 0) {
		t.Fatal("SelectRows aliases the source")
	}
	// No rows selected keeps the width: an empty shard still reports m.
	if empty := m.SelectRows(nil); empty.Rows() != 0 || empty.Cols() != 70 {
		t.Fatalf("empty selection is %dx%d, want 0x70", empty.Rows(), empty.Cols())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row accepted")
		}
	}()
	m.SelectRows([]int{5})
}

// benchMatrix is the trusted-cold benchmark geometry (bench/workloads.go)
// at its fill: ≈ 9 published positives per owner column.
func benchMatrix(b *testing.B) *Matrix {
	b.Helper()
	const rows, cols = 4000, 14336
	m := MustNew(rows, cols)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 9*cols; i++ {
		m.Set(rng.Intn(rows), rng.Intn(cols), true)
	}
	return m
}

// sink keeps benchmark results alive.
var sink int

func BenchmarkTransposed(b *testing.B) {
	m := benchMatrix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += m.Transposed().Rows()
	}
}

func BenchmarkColCounts(b *testing.B) {
	m := benchMatrix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += len(m.ColCounts())
	}
}

// BenchmarkRowOnes is one QueryPPI read off the owner-major layout;
// BenchmarkColOnes beside it is the same answer probed bit by bit.
func BenchmarkRowOnes(b *testing.B) {
	tr := benchMatrix(b).Transposed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += len(tr.RowOnes(i % tr.Rows()))
	}
}

func BenchmarkColOnes(b *testing.B) {
	m := benchMatrix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += len(m.ColOnes(i % m.Cols()))
	}
}

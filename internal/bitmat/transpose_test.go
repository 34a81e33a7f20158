package bitmat

import (
	"fmt"
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

// kernelShapes are the two benchmark workloads' M′ geometries
// (bench/workloads.go): trusted-cold and secure-hot.
var kernelShapes = [][2]int{{4000, 14336}, {512, 32768}}

// kernelDensities, in percent, span a published M′ (0.23 % on
// trusted-cold, 1.9 % on secure-hot), a sparser one, and the dense
// Zipf-head fills on the far side of the kernels' sparse/dense switches.
var kernelDensities = []float64{0.03, 0.23, 2, 20, 50}

// randomMatrix is a rows × cols matrix with about a density share of its
// cells set, seeded so every run times the same bits. Sparse fills set
// that many random cells; dense ones threshold a random byte per cell.
func randomMatrix(rows, cols int, density float64, seed int64) *Matrix {
	m := MustNew(rows, cols)
	rng := rand.New(rand.NewSource(seed))
	if density < 1.0/16 {
		for i := 0; i < int(density*float64(rows)*float64(cols)); i++ {
			m.Set(rng.Intn(rows), rng.Intn(cols), true)
		}
		return m
	}
	limit := uint64(density * 256)
	for r := 0; r < rows; r++ {
		row := m.data[r*m.words : (r+1)*m.words]
		for c := 0; c < cols; c += 8 {
			u := rng.Uint64()
			for b := 0; b < 8 && c+b < cols; b++ {
				if u>>(8*b)&0xff < limit {
					row[(c+b)/64] |= 1 << uint((c+b)%64)
				}
			}
		}
	}
	return m
}

// benchKernel runs one sub-benchmark per kernel shape and density.
func benchKernel(b *testing.B, op func(*Matrix) int) {
	for _, shape := range kernelShapes {
		for _, d := range kernelDensities {
			b.Run(fmt.Sprintf("%dx%d/%g%%", shape[0], shape[1], d), func(b *testing.B) {
				m := randomMatrix(shape[0], shape[1], d/100, 5)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink += op(m)
				}
			})
		}
	}
}

func BenchmarkTransposed(b *testing.B) {
	benchKernel(b, func(m *Matrix) int { return m.Transposed().Rows() })
}

func BenchmarkColCounts(b *testing.B) {
	benchKernel(b, func(m *Matrix) int { return len(m.ColCounts()) })
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

package bitmat

import (
	"math/rand"
	"testing"
)

// FuzzUnmarshalBinary hardens the wire decoder: arbitrary bytes must
// either round-trip faithfully or be rejected — never panic and never
// yield a matrix that re-encodes differently.
func FuzzUnmarshalBinary(f *testing.F) {
	seed := MustNew(3, 70)
	seed.Set(0, 0, true)
	seed.Set(2, 69, true)
	raw, err := seed.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte("BM1\n"))
	f.Add([]byte{})
	// Regression: zero rows with out-of-range cols used to decode but not
	// re-encode (dimension bounds differed between the two directions).
	f.Add([]byte("BM1\n\x00\x00\x00\x00000\xab"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Matrix
		if err := m.UnmarshalBinary(data); err != nil {
			return // rejection is fine
		}
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted matrix failed to re-encode: %v", err)
		}
		if len(out) != len(data) {
			t.Fatalf("re-encoding changed length: %d vs %d", len(out), len(data))
		}
		for i := range out {
			if out[i] != data[i] {
				t.Fatalf("re-encoding differs at byte %d", i)
			}
		}
	})
}

// FuzzOwnerMajor pins the word-level kernels the owner-major index is
// built from to the per-bit column reference (ColOnes, ColCount, Get):
// for any shape — empty on either side, ragged or exact against the 64-bit
// tile — and any fill including an all-ones column, the transpose is an
// involution with clear padding, its rows enumerate the source's columns,
// and the streamed counts equal the probed ones.
func FuzzOwnerMajor(f *testing.F) {
	f.Add(uint8(0), uint8(9), int64(1), uint8(128), uint8(0))
	f.Add(uint8(9), uint8(0), int64(2), uint8(128), uint8(0))
	f.Add(uint8(1), uint8(1), int64(3), uint8(255), uint8(0))
	for _, r := range []uint8{63, 64, 65} {
		for _, c := range []uint8{63, 64, 65} {
			f.Add(r, c, int64(r)*100+int64(c), uint8(40), c-1)
		}
	}
	f.Add(uint8(200), uint8(130), int64(4), uint8(3), uint8(129))
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, density, fullCol uint8) {
		m := MustNew(int(rows), int(cols))
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < m.Rows(); r++ {
			for c := 0; c < m.Cols(); c++ {
				if rng.Intn(256) < int(density) {
					m.Set(r, c, true)
				}
			}
		}
		if m.Cols() > 0 {
			for r := 0; r < m.Rows(); r++ {
				m.Set(r, int(fullCol)%m.Cols(), true)
			}
		}

		tr := m.Transposed()
		if tr.Rows() != m.Cols() || tr.Cols() != m.Rows() {
			t.Fatalf("transpose of %dx%d is %dx%d", m.Rows(), m.Cols(), tr.Rows(), tr.Cols())
		}
		if !tr.Transposed().Equal(m) {
			t.Fatal("double transpose is not the identity")
		}
		// Padding bits clear: the encoding of a matrix with any set would
		// be refused by the decoder.
		raw, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(Matrix).UnmarshalBinary(raw); err != nil {
			t.Fatalf("transpose does not re-decode: %v", err)
		}
		if tr.Count() != m.Count() {
			t.Fatalf("transpose holds %d bits, source %d", tr.Count(), m.Count())
		}

		counts := m.ColCounts()
		if len(counts) != m.Cols() {
			t.Fatalf("ColCounts has %d entries for %d columns", len(counts), m.Cols())
		}
		for j := 0; j < m.Cols(); j++ {
			// The per-column reference needs a row to probe.
			var wantOnes []int
			if m.Rows() > 0 {
				wantOnes = m.ColOnes(j)
			}
			got := tr.RowOnes(j)
			if len(got) != len(wantOnes) {
				t.Fatalf("column %d: RowOnes %v, ColOnes %v", j, got, wantOnes)
			}
			for i := range got {
				if got[i] != wantOnes[i] {
					t.Fatalf("column %d: RowOnes %v, ColOnes %v", j, got, wantOnes)
				}
			}
			if counts[j] != len(wantOnes) {
				t.Fatalf("column %d: ColCounts %d, ColCount %d", j, counts[j], len(wantOnes))
			}
			if len(got) == 0 && got != nil {
				t.Fatalf("column %d: empty row allocated a result", j)
			}
		}
	})
}

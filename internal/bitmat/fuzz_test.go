package bitmat

import (
	"math/rand"
	"slices"
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
// the split transpose deals exactly those rows out to its parts, and the
// streamed counts equal the probed ones. bandOnes, when non-zero, rewrites
// the first 64-row band to hold exactly that many set bits, so the seeds
// can sit on either side of the kernels' switches: a 64×64 tile of
// sparseTile−1, sparseTile and sparseTile+1 bits, an all-ones tile, and a
// band just below and at ColCounts' 1/colScanDensity fill.
func FuzzOwnerMajor(f *testing.F) {
	f.Add(uint8(0), uint8(9), int64(1), uint8(128), uint8(0), uint16(0))
	f.Add(uint8(9), uint8(0), int64(2), uint8(128), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(1), int64(3), uint8(255), uint8(0), uint16(0))
	for _, r := range []uint8{63, 64, 65} {
		for _, c := range []uint8{63, 64, 65} {
			f.Add(r, c, int64(r)*100+int64(c), uint8(40), c-1, uint16(0))
		}
	}
	f.Add(uint8(200), uint8(130), int64(4), uint8(3), uint8(129), uint16(0))
	// One 64×64 tile on each side of the scatter/butterfly switch, and full.
	for _, ones := range []int{sparseTile - 1, sparseTile, sparseTile + 1, 64 * 64} {
		f.Add(uint8(64), uint8(64), int64(ones), uint8(0), uint8(0), uint16(ones))
	}
	// A 64 × 200 band just below and at the ColCounts row-scan limit.
	limit := 64 * 200 / colScanDensity
	f.Add(uint8(64), uint8(200), int64(5), uint8(0), uint8(0), uint16(limit-1))
	f.Add(uint8(64), uint8(200), int64(6), uint8(0), uint8(0), uint16(limit))
	f.Add(uint8(130), uint8(200), int64(7), uint8(20), uint8(3), uint16(limit+1))
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, density, fullCol uint8, bandOnes uint16) {
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
		if h := min(64, m.Rows()); bandOnes > 0 && h > 0 && m.Cols() > 0 {
			cells := h * m.Cols()
			for i := 0; i < cells; i++ {
				m.Set(i/m.Cols(), i%m.Cols(), false)
			}
			for _, i := range rng.Perm(cells)[:min(int(bandOnes), cells)] {
				m.Set(i/m.Cols(), i%m.Cols(), true)
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

		// The split transpose: column c is row at[c] of part to[c], parts
		// filled in column order.
		parts := 1 + rng.Intn(4)
		to := make([]int, m.Cols())
		for c := range to {
			to[c] = rng.Intn(parts)
		}
		split := m.SplitTransposed(to, parts)
		if len(split) != parts {
			t.Fatalf("SplitTransposed made %d parts, want %d", len(split), parts)
		}
		at := make([]int, parts)
		for c, k := range to {
			if at[k] >= split[k].Rows() {
				t.Fatalf("part %d has %d rows, column %d needs row %d", k, split[k].Rows(), c, at[k])
			}
			if !slices.Equal(split[k].RowWords(at[k]), tr.RowWords(c)) {
				t.Fatalf("column %d: part %d row %d differs from transpose row", c, k, at[k])
			}
			at[k]++
		}
		for k, part := range split {
			if part.Rows() != at[k] || part.Cols() != m.Rows() {
				t.Fatalf("part %d is %dx%d, want %dx%d", k, part.Rows(), part.Cols(), at[k], m.Rows())
			}
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
				if c := m.ColCount(j); counts[j] != c {
					t.Fatalf("column %d: ColCounts %d, ColCount %d", j, counts[j], c)
				}
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

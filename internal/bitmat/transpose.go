package bitmat

import "math/bits"

// Transpose64 transposes a 64×64 bit matrix in place: word r holds row r,
// bit c of word r is cell (r, c). After the call bit r of word c is that
// cell — rows become columns.
//
// This is the butterfly network of Hacker's Delight §7-3 (mirrored for a
// bit-0-is-column-0 layout): log2(64) = 6 passes, pass k swapping
// 2^k × 2^k sub-blocks across the diagonal with a masked XOR trick, 32
// word operations per pass. The wide GMW evaluator uses it to slice 64
// instance-major share values into bit-plane words (one word per wire,
// one bit per instance) and to slice result planes back out, so the
// conversion costs ~400 word ops per 64-value block instead of 64×64
// single-bit inserts.
func Transpose64(m *[64]uint64) {
	low := uint64(0x00000000FFFFFFFF) // low half of each 2j-wide lane
	for j := 32; j != 0; j >>= 1 {
		// Visit every row whose j bit is clear; pair it with the row j
		// below. Swap the upper block's high bits with the lower block's
		// low bits (the two off-diagonal sub-blocks).
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (m[k] ^ (m[k+j] << j)) &^ low
			m[k] ^= t
			m[k+j] ^= t >> j
		}
		low ^= low << (j >> 1)
	}
}

// loadTile copies the 64×64 tile whose top-left cell is (r0, 64·cw) into
// tile, zero-filling the rows past the matrix's last, and reports whether
// any bit of it is set.
func (m *Matrix) loadTile(tile *[64]uint64, r0, cw int) bool {
	h := min(64, m.rows-r0)
	var any uint64
	for i := 0; i < h; i++ {
		w := m.data[(r0+i)*m.words+cw]
		tile[i] = w
		any |= w
	}
	if any == 0 {
		return false
	}
	for i := h; i < 64; i++ {
		tile[i] = 0
	}
	return true
}

// Transposed returns the cols × rows transpose: row j of the result is
// column j of m, packed into ⌈rows/64⌉ contiguous words. The index serves
// this orientation of M′ (one owner's provider set per row) so a QueryPPI
// is a word scan instead of one single-bit probe per provider.
//
// The matrix is walked in 64×64 tiles, each turned by one Transpose64;
// all-zero tiles (most of a sparse membership matrix) are skipped, and
// ragged edge tiles are zero-filled so the padding bits of the result stay
// clear.
func (m *Matrix) Transposed() *Matrix {
	out := MustNew(m.cols, m.rows)
	var tile [64]uint64
	for r0 := 0; r0 < m.rows; r0 += 64 {
		for cw := 0; cw < m.words; cw++ {
			if !m.loadTile(&tile, r0, cw) {
				continue
			}
			Transpose64(&tile)
			w := min(64, m.cols-cw*64)
			for k := 0; k < w; k++ {
				out.data[(cw*64+k)*out.words+r0/64] = tile[k]
			}
		}
	}
	return out
}

// ColCounts returns ColCount(j) for every column j in one pass over the
// same 64×64 tiles Transposed walks: each non-zero tile is turned in a
// stack buffer and its 64 words popcounted, so no transpose is ever
// materialised (at 10⁴ × 10⁵ that would be 125 MB per matrix).
func (m *Matrix) ColCounts() []int {
	counts := make([]int, m.cols)
	var tile [64]uint64
	for r0 := 0; r0 < m.rows; r0 += 64 {
		for cw := 0; cw < m.words; cw++ {
			if !m.loadTile(&tile, r0, cw) {
				continue
			}
			Transpose64(&tile)
			block := counts[cw*64 : min(cw*64+64, m.cols)]
			for k := range block {
				block[k] += bits.OnesCount64(tile[k])
			}
		}
	}
	return counts
}

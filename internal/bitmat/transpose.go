package bitmat

import (
	"fmt"
	"math/bits"
)

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

// sparseTile is the popcount at or below which a tile is transposed bit
// by bit (scatterTile) instead of by Transpose64. A scattered bit costs a
// trailing-zeros step and two word updates; the butterfly costs 6 passes
// of 32 masked swaps plus the stores whatever the tile holds. On x86-64
// the two meet between 80 and 120 bits a tile (uniform fills of 2 % and
// 3 %, 2 cores); at 64 — one bit a row — every scattered tile is clearly
// on the winning side. Published matrices sit far below (0.2 % dense,
// ≈ 9 bits a tile, on trusted-cold) except in the Zipf head columns
// (≥ 20 %), which keep the butterfly.
const sparseTile = 64

// loadTile copies the 64×64 tile whose top-left cell is (r0, 64·cw) into
// tile, zero-filling the rows past the matrix's last, and returns the
// number of set bits in it.
func (m *Matrix) loadTile(tile *[64]uint64, r0, cw int) int {
	h := min(64, m.rows-r0)
	ones := 0
	for i := 0; i < h; i++ {
		w := m.data[(r0+i)*m.words+cw]
		tile[i] = w
		ones += bits.OnesCount64(w)
	}
	if ones == 0 {
		return 0
	}
	for i := h; i < 64; i++ {
		tile[i] = 0
	}
	return ones
}

// scatterTile transposes a tile of at most sparseTile set bits one bit at
// a time into out, which must be zero, and returns the mask of out's
// non-zero words. The caller stores those words and zeroes them again.
func scatterTile(tile, out *[64]uint64) (nz uint64) {
	for i, word := range tile {
		for ; word != 0; word &= word - 1 {
			k := bits.TrailingZeros64(word)
			out[k] |= 1 << uint(i)
			nz |= 1 << uint(k)
		}
	}
	return nz
}

// Transposed returns the cols × rows transpose: row j of the result is
// column j of m, packed into ⌈rows/64⌉ contiguous words. The index serves
// this orientation of M′ (one owner's provider set per row) so a QueryPPI
// is a word scan instead of one single-bit probe per provider.
//
// The matrix is walked in 64×64 tiles and each is turned by its popcount:
// an all-zero tile (most of a sparse membership matrix) is skipped, a tile
// of at most sparseTile bits is scattered (scatterTile) and only its
// non-zero words stored, since the result starts zeroed, and a denser one
// goes through Transpose64 and is stored whole (a branch per word would
// mispredict on the many zero words of a 2 % tile). Ragged edge tiles are
// zero-filled, so the padding bits of the result stay clear.
func (m *Matrix) Transposed() *Matrix {
	out := MustNew(m.cols, m.rows)
	var tile, scattered [64]uint64
	for r0 := 0; r0 < m.rows; r0 += 64 {
		for cw := 0; cw < m.words; cw++ {
			ones := m.loadTile(&tile, r0, cw)
			if ones == 0 {
				continue
			}
			// Word r0/64 of the result row of column 64·cw+k is at base+k·words.
			base := cw*64*out.words + r0/64
			if ones <= sparseTile {
				for nz := scatterTile(&tile, &scattered); nz != 0; nz &= nz - 1 {
					k := bits.TrailingZeros64(nz)
					out.data[base+k*out.words] = scattered[k]
					scattered[k] = 0
				}
				continue
			}
			Transpose64(&tile)
			for k := 0; k < min(64, m.cols-cw*64); k++ {
				out.data[base+k*out.words] = tile[k]
			}
		}
	}
	return out
}

// SplitTransposed is Transposed with the result's rows dealt out to parts
// matrices: column c of m becomes the next row of part to[c], so part k
// holds the columns routed to it in ascending column order, as a
// (number of c with to[c] == k) × rows matrix. It is the same tile walk
// as Transposed with the store redirected — the shard partitioner's split
// of M′ into owner-major shards, with no full transpose and no row copy
// in between. It panics on a part out of [0, parts) or a to of the wrong
// length.
func (m *Matrix) SplitTransposed(to []int, parts int) []*Matrix {
	if len(to) != m.cols {
		panic(fmt.Sprintf("bitmat: SplitTransposed got %d parts for %d columns", len(to), m.cols))
	}
	// at[c] is the offset of column c's row within its part: columns are
	// dealt in ascending order, so that row is the column's rank among
	// those routed to the same part.
	at := make([]int, m.cols)
	sizes := make([]int, parts)
	words := (m.rows + 63) / 64
	for c, k := range to {
		if k < 0 || k >= parts {
			panic(fmt.Sprintf("bitmat: part %d out of %d", k, parts))
		}
		at[c] = sizes[k] * words
		sizes[k]++
	}
	out := make([]*Matrix, parts)
	for k, n := range sizes {
		out[k] = MustNew(n, m.rows)
	}
	var tile, scattered [64]uint64
	for r0 := 0; r0 < m.rows; r0 += 64 {
		rw := r0 / 64
		for cw := 0; cw < m.words; cw++ {
			ones := m.loadTile(&tile, r0, cw)
			if ones == 0 {
				continue
			}
			c0 := cw * 64
			if ones <= sparseTile {
				for nz := scatterTile(&tile, &scattered); nz != 0; nz &= nz - 1 {
					k := bits.TrailingZeros64(nz)
					out[to[c0+k]].data[at[c0+k]+rw] = scattered[k]
					scattered[k] = 0
				}
				continue
			}
			Transpose64(&tile)
			for k := 0; k < min(64, m.cols-c0); k++ {
				out[to[c0+k]].data[at[c0+k]+rw] = tile[k]
			}
		}
	}
	return out
}

// colScanDensity sets the fill below which ColCounts reads a band's set
// bits directly instead of turning its tiles: 1/colScanDensity of the
// cells, two bits a word. A set bit costs a trailing-zeros step and a
// counter increment, a tile one Transpose64 and 64 popcounts whatever it
// holds; at 512 × 32 768 the two meet between 3 and 5 % (at 50 % the
// bit scan is three times slower).
const colScanDensity = 32

// ColCounts returns ColCount(j) for every column j. It works one band of
// 64 rows at a time, and picks the band's path from its popcount: a sparse
// band (a published M′, a truth matrix) is read row by row, each set bit
// bumping its column's counter; a denser one is walked in the 64×64 tiles
// Transposed uses, each non-zero tile turned in a stack buffer and its 64
// words popcounted. Neither path materialises a transpose (at 10⁴ × 10⁵
// that would be 125 MB per matrix).
func (m *Matrix) ColCounts() []int {
	counts := make([]int, m.cols)
	var tile [64]uint64
	for r0 := 0; r0 < m.rows; r0 += 64 {
		h := min(64, m.rows-r0)
		band := m.data[r0*m.words : (r0+h)*m.words]
		// The band is sparse while its running popcount stays under the
		// limit; a dense one is recognised after a fraction of its rows.
		sparse, ones := true, 0
		for r := 0; r < h && sparse; r++ {
			for _, word := range band[r*m.words : (r+1)*m.words] {
				ones += bits.OnesCount64(word)
			}
			sparse = ones*colScanDensity < h*m.cols
		}
		if sparse {
			for r := 0; r < h; r++ {
				for i, word := range band[r*m.words : (r+1)*m.words] {
					for ; word != 0; word &= word - 1 {
						counts[i*64+bits.TrailingZeros64(word)]++
					}
				}
			}
			continue
		}
		// loadTile's popcount would be wasted here: the band is dense.
		for cw := 0; cw < m.words; cw++ {
			var any uint64
			for i := 0; i < h; i++ {
				tile[i] = band[i*m.words+cw]
				any |= tile[i]
			}
			if any == 0 {
				continue
			}
			clear(tile[h:])
			Transpose64(&tile)
			block := counts[cw*64 : min(cw*64+64, m.cols)]
			for k := range block {
				block[k] += bits.OnesCount64(tile[k])
			}
		}
	}
	return counts
}

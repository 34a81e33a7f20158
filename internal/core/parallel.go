package core

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/bitmat"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Sharding geometry of the parallel construction pipeline.
const (
	// colShard is the column block size for β thresholds and mixing. It is
	// part of the deterministic-output contract: a mixing shard draws from
	// the stream (Config.Seed, seedStreamMix, shard index), so changing it
	// changes which stream a column draws from and therefore the hidden set
	// for a given seed. Tuned once, not per-run.
	colShard = 64
	// rowShard is scheduling granularity only: the rows one publication task
	// handles. Publication coins are keyed per cell, so no output depends on
	// it.
	rowShard = 128
)

// DeriveSeed stream labels, one per randomized construction stage. Each
// stage draws from its own family of child seeds so no two stages — and no
// two shards within a stage — ever share an RNG stream.
const (
	seedStreamMix uint64 = iota + 1
	seedStreamPublish
	seedStreamCoins
	// One stream per GMW execution of stages B and C, each of which runs
	// once per construction over all identities (index 0).
	seedStreamCountBelow
	seedStreamSliceCount
	seedStreamReveal
)

// listedMax is K, the most columns with a non-zero first threshold byte a
// word may hold and still have them compared one byte at a time from a
// list; a word with more keeps the eight-lane SWAR compare. A listed column
// costs a load and a compare per row, a SWAR word eight lessBytes calls
// whatever it holds. Measured on a 2-core x86-64 (AES-NI), one worker,
// 512 × 32 768 with L such columns in every word (1 ≤ t8 ≤ 31, the rest
// β = 0), list and SWAR cross between L = 16 and L = 24. At the two
// benchmark shapes (BenchmarkPublish): the trusted 4000 × 14 336 profile
// has ≤ 8 such columns in all but 4 of its 224 words and times 24–31 ms at
// every K ∈ {4, 8, 16, 32, 64}; the secure 512 × 32 768 profile has 64 in
// every word, 18 ms on SWAR and 34 ms if listed (K = 64).
const listedMax = 16

// listedCol is one column on the byte-at-a-time list.
type listedCol struct {
	j    int
	t8   byte
	tail uint64
}

// publishSharded applies the randomized publication rule of Equation 2:
// true bits copy unchanged, and provider i flips its zero cell (i, j) to 1
// iff its coin u(i, j) < β_j.
//
// The coin is a fixed point per cell, not a draw from a stream. u(i, j) is
// a 64-bit binary fraction under provider i's key k_i (coinKey): its first
// byte is byte j of the AES-CTR keystream (IV 0, so one block serves 16
// adjacent cells) and its other 56 bits (coinTail) are read only when that
// byte ties with the first byte of T_j = ⌊β_j · 2⁶⁴⌋ — the full 64-bit
// comparison, evaluated lazily. M′(i, j) is therefore a function of
// (seed, i, j, β_j, M(i, j)) alone — not of the worker count, the shard
// geometry or any other cell — and monotone in β_j: a cell published at β
// stays published at every β′ ≥ β (DESIGN.md §7, "Publication coin").
//
// Work is sharded by rows (publication is provider-local). Per row the
// keystream is expanded once into a reused buffer, and each live column
// (0 < β < 1) is compared by the cheapest of three routes, fixed per
// construction by its first threshold byte t8 = T_j >> 56:
//
//   - t8 = 0 (tie-only): no byte is below 0, so the cell can publish only
//     where its keystream byte is 0. One bytes.IndexByte walk over the row's
//     keystream finds those bytes; hits in other columns are skipped.
//   - t8 ≥ 1 in a word holding at most listedMax such columns: compared one
//     byte at a time from a list.
//   - t8 ≥ 1 in a fuller word: eight 8-byte SWAR compares for the word.
func publishSharded(ctx context.Context, truth *bitmat.Matrix, betas []float64, seed int64, workers int) *bitmat.Matrix {
	published := truth.Clone()
	m, n := truth.Rows(), truth.Cols()
	words := (n + 63) / 64
	pubCtx, pubSpan := trace.StartChild(ctx, "core.publish")
	defer pubSpan.End()

	// Per-column tables: T_j split into its first byte and 56-bit tail, and
	// per-word masks of the columns published outright (β ≥ 1), of the
	// tie-only columns and of the rest of the live ones. β ≤ 0 and padding
	// columns are in none.
	t8 := make([]byte, words*64)
	tail := make([]uint64, n)
	ones := make([]uint64, words)
	tieOnly := make([]uint64, words)
	above := make([]uint64, words) // live columns with t8 ≥ 1
	tieOnlyCols := 0
	for j, beta := range betas[:n] {
		switch {
		case beta >= 1:
			ones[j/64] |= 1 << (j % 64)
		case beta > 0:
			// ⌊β · 2⁶⁴⌋: scaling by a power of two is exact, and β ≤ 1 − 2⁻⁵³
			// keeps the product below 2⁶⁴.
			t := uint64(math.Ldexp(beta, 64))
			t8[j], tail[j] = byte(t>>56), t&(1<<56-1)
			if t8[j] == 0 {
				tieOnly[j/64] |= 1 << (j % 64)
				tieOnlyCols++
			} else {
				above[j/64] |= 1 << (j % 64)
			}
		}
	}
	var listed []listedCol
	var swar []int
	for w, a := range above {
		if bits.OnesCount64(a) > listedMax {
			swar = append(swar, w)
			continue
		}
		for ; a != 0; a &= a - 1 {
			j := w*64 + bits.TrailingZeros64(a)
			listed = append(listed, listedCol{j: j, t8: t8[j], tail: tail[j]})
		}
	}
	pubSpan.SetInt("tie_only", tieOnlyCols)
	pubSpan.SetInt("listed", len(listed))
	pubSpan.SetInt("swar_words", len(swar))
	zeros := make([]byte, len(t8))

	parallel.Blocks(workers, m, rowShard, func(_, lo, hi int) error {
		_, sp := trace.StartChild(pubCtx, "core.publish.shard",
			trace.Int("row_lo", lo), trace.Int("rows", hi-lo))
		defer sp.End()
		ks := make([]byte, len(t8))
		row := make([]uint64, words)
		var iv, scratch [aes.BlockSize]byte
		for i := lo; i < hi; i++ {
			key := coinKey(seed, i)
			block, err := aes.NewCipher(key[:])
			if err != nil {
				panic(err) // a 16-byte key is always valid
			}
			cipher.NewCTR(block, iv[:]).XORKeyStream(ks, zeros)
			copy(row, ones)
			for _, w := range swar {
				var lt, eq uint64
				kw, tw := ks[w*64:w*64+64], t8[w*64:w*64+64]
				for b := 0; b < 64; b += 8 {
					l, e := lessBytes(binary.LittleEndian.Uint64(kw[b:]), binary.LittleEndian.Uint64(tw[b:]))
					lt |= l << b
					eq |= e << b
				}
				for ties := eq & above[w]; ties != 0; ties &= ties - 1 {
					j := w*64 + bits.TrailingZeros64(ties)
					if coinTail(block, &scratch, j) < tail[j] {
						lt |= 1 << (j % 64)
					}
				}
				row[w] |= lt & above[w]
			}
			for _, c := range listed {
				if kb := ks[c.j]; kb < c.t8 || kb == c.t8 && coinTail(block, &scratch, c.j) < c.tail {
					row[c.j/64] |= 1 << (c.j % 64)
				}
			}
			if tieOnlyCols > 0 {
				for j := 0; ; j++ {
					k := bytes.IndexByte(ks[j:], 0)
					if k < 0 {
						break
					}
					j += k
					if tieOnly[j/64]&(1<<(j%64)) != 0 && coinTail(block, &scratch, j) < tail[j] {
						row[j/64] |= 1 << (j % 64)
					}
				}
			}
			published.OrRow(i, row)
		}
		return nil
	})
	return published
}

// coinKey derives provider i's publication key k_i from the run seed, so a
// given seed reproduces M′ exactly. It is the one place the keys come from:
// with a 64-bit seed behind them the coins are sticky and cheap, not
// unpredictable.
func coinKey(seed int64, i int) (key [16]byte) {
	binary.LittleEndian.PutUint64(key[:8], uint64(mathx.DeriveSeed(seed, seedStreamPublish, uint64(2*i))))
	binary.LittleEndian.PutUint64(key[8:], uint64(mathx.DeriveSeed(seed, seedStreamPublish, uint64(2*i+1))))
	return key
}

// coinTail returns the low 56 bits of u(i, j): the first seven bytes of
// AES_{k_i}(1 ‖ j). The leading 1 byte keeps these blocks out of the CTR
// stream's counter range (which starts at 0 and never reaches 2¹²⁰). buf is
// the caller's scratch block, so a tie does not allocate.
func coinTail(block cipher.Block, buf *[aes.BlockSize]byte, j int) uint64 {
	*buf = [aes.BlockSize]byte{0: 1}
	binary.BigEndian.PutUint64(buf[8:], uint64(j))
	block.Encrypt(buf[:], buf[:])
	return binary.BigEndian.Uint64(buf[:8]) >> 8
}

// lessBytes compares the eight bytes of x with the eight bytes of y as
// unsigned values, all at once and branch-free: bit k of lt is set iff byte
// k of x < byte k of y, bit k of eq iff they are equal (byte 0 = least
// significant).
func lessBytes(x, y uint64) (lt, eq uint64) {
	const (
		hi = 0x8080808080808080
		lo = 0x7f7f7f7f7f7f7f7f
		// gather multiplies the eight bits at positions 8k into the top
		// byte: bit 8k lands on bit 56+k, and no two partial products meet.
		gather = 0x0102040810204080
	)
	// Per byte: bit 7 of d is set iff the low 7 bits of x ≥ those of y (the
	// forced top bit absorbs the borrow, so bytes do not interact).
	d := (x | hi) - (y &^ hi)
	diff := x ^ y
	// x < y where the top bits decide (0 vs 1), or agree and the low 7 lose.
	ltHi := (^x&y | ^diff&^d) & hi
	// Bit 7 set for every byte of diff that is non-zero.
	neHi := (((diff & lo) + lo) | diff) & hi
	return (ltHi >> 7) * gather >> 56, ((^neHi & hi) >> 7) * gather >> 56
}

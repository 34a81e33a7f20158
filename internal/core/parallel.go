package core

import (
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
	seedStreamCountBelow
	seedStreamReveal
	// Wide-path streams: one per slab-level protocol execution, indexed by
	// the slab's global identity offset (unique across batches because
	// slabs never straddle batch boundaries).
	seedStreamWideCountBelow
	seedStreamSliceCount
	seedStreamWideReveal
)

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
// keystream is expanded once into a reused buffer and each 64-column word
// of noise is eight 8-byte compares, ORed onto the cloned truth row.
func publishSharded(ctx context.Context, truth *bitmat.Matrix, betas []float64, seed int64, workers int) *bitmat.Matrix {
	published := truth.Clone()
	m, n := truth.Rows(), truth.Cols()
	words := (n + 63) / 64
	pubCtx, pubSpan := trace.StartChild(ctx, "core.publish")
	defer pubSpan.End()

	// Per-column tables: T_j split into its first byte and 56-bit tail, and
	// per-word masks of the columns that need a coin (0 < β < 1) or are
	// published outright (β ≥ 1). β ≤ 0 and padding columns are in neither.
	t8 := make([]byte, words*64)
	tail := make([]uint64, n)
	live := make([]uint64, words)
	ones := make([]uint64, words)
	for j, beta := range betas[:n] {
		switch {
		case beta >= 1:
			ones[j/64] |= 1 << (j % 64)
		case beta > 0:
			// ⌊β · 2⁶⁴⌋: scaling by a power of two is exact, and β ≤ 1 − 2⁻⁵³
			// keeps the product below 2⁶⁴.
			t := uint64(math.Ldexp(beta, 64))
			t8[j], tail[j] = byte(t>>56), t&(1<<56-1)
			live[j/64] |= 1 << (j % 64)
		}
	}
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
			for w := range row {
				var lt, eq uint64
				kw, tw := ks[w*64:w*64+64], t8[w*64:w*64+64]
				for b := 0; b < 64; b += 8 {
					l, e := lessBytes(binary.LittleEndian.Uint64(kw[b:]), binary.LittleEndian.Uint64(tw[b:]))
					lt |= l << b
					eq |= e << b
				}
				for ties := eq & live[w]; ties != 0; ties &= ties - 1 {
					j := w*64 + bits.TrailingZeros64(ties)
					if coinTail(block, &scratch, j) < tail[j] {
						lt |= 1 << (j % 64)
					}
				}
				row[w] = lt&live[w] | ones[w]
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

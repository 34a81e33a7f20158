// Package prf is the one place construction gets its randomness from. Every
// protocol draw — publication coins, SecSumShare share keys, the mixing
// coins, the triple dealer, GMW input sharing and the OT parties' entropy —
// is the AES-CTR keystream under a key derived from the run seed, a purpose
// label and an index (Key). A draw is therefore a function of (seed,
// purpose, index, position) alone: no worker count, shard size or batch
// size can move it.
//
// With a 64-bit seed behind the keys the coins are reproducible and sticky,
// not unpredictable (DESIGN.md §7).
package prf

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// Purpose labels one use of construction randomness. Distinct purposes
// never share a key, whatever the indices.
type Purpose uint64

// The purpose table (DESIGN.md §7). Every purpose keeps the label its keys
// have always been derived under, so those keys are stable across releases.
// Label 1 is retired: it keyed an earlier release's trusted mixing coins.
const (
	// Publish: provider i's publication key k_i is Key(seed, Publish, i).
	Publish Purpose = 2
	// Coins: coordinator k's mixing coin for owner j is word j of
	// Key(seed, Coins, k), in both construction modes: the secure
	// coordinators input it to RevealSlice, and trusted mode XORs the same
	// words in the clear.
	Coins Purpose = 3
	// Exec: secure construction's GMW execution on session s runs under
	// Seed(seed, Exec, s).
	Exec Purpose = 4
	// Dealer: the triple dealer's shard s is dealt from Key(exec, Dealer, s).
	Dealer Purpose = 5
	// Input: GMW party p shares its inputs from Key(exec, Input, p).
	Input Purpose = 6
	// OT: OT-preprocessing party p draws from Key(exec, OT, p).
	OT Purpose = 7
	// Share: SecSumShare's k_{i,k} is Key(seed, Share, i<<31 | k) (ASCII
	// "secsum").
	Share Purpose = 0x73656373756d
)

// Key derives the 16-byte AES key of (seed, purpose, index): the
// little-endian words derive(2·index) ‖ derive(2·index + 1), where derive
// chains three rounds of the splitmix64 finalizer over the seed, the
// purpose and the word index. The finalizer is a bijection, so small
// consecutive inputs still land far apart.
func Key(seed int64, p Purpose, index uint64) (key [16]byte) {
	binary.LittleEndian.PutUint64(key[:8], derive(seed, uint64(p), 2*index))
	binary.LittleEndian.PutUint64(key[8:], derive(seed, uint64(p), 2*index+1))
	return key
}

// Seed is the first word of Key(seed, p, index), for the APIs that take an
// int64 seed and derive their own keys from it (gmw).
func Seed(seed int64, p Purpose, index uint64) int64 {
	return int64(derive(seed, uint64(p), 2*index))
}

func derive(seed int64, label, index uint64) uint64 {
	const golden = 0x9e3779b97f4a7c15
	h := splitmix64(uint64(seed) + golden)
	h = splitmix64(h ^ (label + golden))
	return splitmix64(h ^ (index + golden))
}

// splitmix64 is the finalizer of the SplitMix64 generator (Steele et al.).
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stream is the AES-CTR keystream under one key (IV 0), read in order. It
// is an io.Reader. Not safe for concurrent use.
type Stream struct {
	block cipher.Block
	ctr   cipher.Stream
	buf   [aes.BlockSize]byte
}

// New starts the keystream of key at its first byte.
func New(key [16]byte) *Stream {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	var iv [aes.BlockSize]byte
	return &Stream{block: block, ctr: cipher.NewCTR(block, iv[:])}
}

// Read fills b with the next len(b) keystream bytes. It never fails.
func (s *Stream) Read(b []byte) (int, error) {
	clear(b)
	s.ctr.XORKeyStream(b, b)
	return len(b), nil
}

// Words fills dst with the next len(dst) keystream words, each 8 bytes read
// little-endian: word w of a fresh stream is bytes [8w, 8w+8).
func (s *Stream) Words(dst []uint64) {
	var b [2048]byte
	for len(dst) > 0 {
		k := min(len(dst), len(b)/8)
		s.Read(b[:8*k])
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		dst = dst[k:]
	}
}

// Slot returns slot j's word, the first eight bytes (big-endian) of
// AES_k(1 ‖ j), j a 64-bit big-endian counter. The leading 1 byte keeps
// these blocks out of the CTR stream's counter range, which starts at 0
// and never reaches 2¹²⁰, so a slot word is independent of every stream
// word. It does not move the stream.
func (s *Stream) Slot(j uint64) uint64 {
	s.buf = [aes.BlockSize]byte{0: 1}
	binary.BigEndian.PutUint64(s.buf[8:], j)
	s.block.Encrypt(s.buf[:], s.buf[:])
	return binary.BigEndian.Uint64(s.buf[:8])
}

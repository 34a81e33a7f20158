// Package ot implements 1-out-of-2 oblivious transfer (Bellare–Micali
// style, semi-honest) over the 2048-bit MODP group of RFC 3526, using only
// the standard library (math/big modular arithmetic + SHA-256 key
// derivation).
//
// OT is the cryptographic root of GMW preprocessing: it lets two parties
// compute XOR shares of a·b where one holds a and the other b, without
// revealing either — which upgrades the gmw package's trusted triple
// dealer to a real pairwise protocol (gmw.GenTriplesOT).
//
// Protocol, per batch of n transfers between a sender holding message
// pairs (m0ᵗ, m1ᵗ) and a receiver holding choice bits σᵗ:
//
//	S → R: random group element C (whose discrete log nobody knows under
//	       semi-honest behaviour; the sender never uses it as a key)
//	R → S: PK0ᵗ where PKσ = g^kᵗ and PK(1−σ) = C·PKσ⁻¹
//	S → R: for each t and i ∈ {0,1}: (g^{rᵗᵢ}, mᵗᵢ ⊕ H(PKᵗᵢ^{rᵗᵢ}))
//	R:     decrypts its chosen ciphertext with H((g^{rᵗσ})^{kᵗ})
//
// The receiver learns exactly one message per pair (it knows the discrete
// log of only one public key); the sender learns nothing about σ (PK0 is
// uniformly distributed either way).
package ot

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"

	"repro/internal/parallel"
	"repro/internal/transport"
)

// Group is a multiplicative group Z_p* with generator g.
type Group struct {
	P *big.Int
	G *big.Int
}

// rfc3526Group14P is the 2048-bit MODP prime of RFC 3526 §3.
const rfc3526Group14P = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
	"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
	"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
	"15728E5A8AACAA68FFFFFFFFFFFFFFFF"

// DefaultGroup returns the RFC 3526 group 14 with generator 2.
func DefaultGroup() Group {
	p, ok := new(big.Int).SetString(rfc3526Group14P, 16)
	if !ok {
		panic("ot: bad builtin prime literal")
	}
	return Group{P: p, G: big.NewInt(2)}
}

var (
	// ErrBadBatch reports inconsistent batch parameters.
	ErrBadBatch = errors.New("ot: malformed batch")
	// ErrProtocol reports a malformed message from the peer.
	ErrProtocol = errors.New("ot: protocol violation")
)

// MessageSize is the fixed per-message payload size in bytes. Triple
// generation needs single bits; a fixed small size keeps framing trivial.
const MessageSize = 1

// SendBatch plays the sender: transfers pairs[t] = {m0, m1} (MessageSize
// bytes each) to peer. entropy supplies the protocol randomness
// (crypto/rand.Reader in production; a seeded PRNG in deterministic
// simulations). seq tags the batch so concurrent OT sessions between the
// same parties don't interleave.
func SendBatch(g Group, coll *transport.Collector, peer int, pairs [][2][]byte, entropy io.Reader, seq uint32) error {
	for i, p := range pairs {
		if len(p[0]) != MessageSize || len(p[1]) != MessageSize {
			return fmt.Errorf("%w: pair %d has sizes %d/%d", ErrBadBatch, i, len(p[0]), len(p[1]))
		}
	}
	// Step 1: send C.
	c, err := randomElement(g, entropy)
	if err != nil {
		return err
	}
	if err := coll.Send(peer, transport.Message{
		Kind: transport.KindOT, Seq: seq, Data: packBigs([]*big.Int{c}),
	}); err != nil {
		return fmt.Errorf("ot: send C: %w", err)
	}
	// Step 2: receive all PK0s.
	msg, err := coll.RecvKind(transport.KindOT, seq)
	if err != nil {
		return fmt.Errorf("ot: recv PK0s: %w", err)
	}
	pk0s, err := unpackBigs(msg.Data, len(pairs))
	if err != nil {
		return fmt.Errorf("ot: PK0 batch for %d pairs: %w", len(pairs), err)
	}
	// Step 3: encrypt both messages per transfer. The exponents are drawn
	// in transfer order first, so the transcript does not depend on how
	// the exponentiations are then spread over the CPUs.
	cInv := new(big.Int).ModInverse(c, g.P)
	if cInv == nil {
		return fmt.Errorf("%w: non-invertible C", ErrProtocol)
	}
	rs := make([]*big.Int, 2*len(pairs))
	for i := range rs {
		if rs[i], err = randomScalar(g, entropy); err != nil {
			return err
		}
	}
	out := make([]*big.Int, 4*len(pairs))
	err = parallel.For(runtime.GOMAXPROCS(0), len(pk0s), func(t int) error {
		pk0 := pk0s[t]
		if pk0.Sign() <= 0 || pk0.Cmp(g.P) >= 0 {
			return fmt.Errorf("%w: PK0[%d] out of range", ErrProtocol, t)
		}
		pk1 := new(big.Int).Mul(c, new(big.Int).ModInverse(pk0, g.P))
		pk1.Mod(pk1, g.P)
		for i, pk := range []*big.Int{pk0, pk1} {
			r := rs[2*t+i]
			gr := new(big.Int).Exp(g.G, r, g.P)
			key := new(big.Int).Exp(pk, r, g.P)
			out[4*t+2*i] = gr
			out[4*t+2*i+1] = new(big.Int).SetBytes(xorMask(pairs[t][i], key))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := coll.Send(peer, transport.Message{
		Kind: transport.KindOT, Seq: seq, Data: packBigs(out),
	}); err != nil {
		return fmt.Errorf("ot: send ciphertexts: %w", err)
	}
	return nil
}

// ReceiveBatch plays the receiver: choices[t] selects which message of
// pair t to learn. Returns the chosen messages (MessageSize bytes each).
func ReceiveBatch(g Group, coll *transport.Collector, peer int, choices []byte, entropy io.Reader, seq uint32) ([][]byte, error) {
	if len(choices) == 0 {
		return nil, fmt.Errorf("%w: empty choice vector", ErrBadBatch)
	}
	// Step 1: receive C.
	msg, err := coll.RecvKind(transport.KindOT, seq)
	if err != nil {
		return nil, fmt.Errorf("ot: recv C: %w", err)
	}
	cs, err := unpackBigs(msg.Data, 1)
	if err != nil {
		return nil, fmt.Errorf("ot: C message: %w", err)
	}
	c := cs[0]
	if c.Sign() <= 0 || c.Cmp(g.P) >= 0 {
		return nil, fmt.Errorf("%w: C out of range", ErrProtocol)
	}
	// Step 2: send PK0 per transfer (secrets drawn in transfer order, the
	// exponentiations spread over the CPUs).
	ks := make([]*big.Int, len(choices))
	for t, sigma := range choices {
		if sigma > 1 {
			return nil, fmt.Errorf("%w: choice %d is not a bit", ErrBadBatch, t)
		}
		if ks[t], err = randomScalar(g, entropy); err != nil {
			return nil, err
		}
	}
	pk0s := make([]*big.Int, len(choices))
	parallel.For(runtime.GOMAXPROCS(0), len(choices), func(t int) error {
		pkSigma := new(big.Int).Exp(g.G, ks[t], g.P)
		if choices[t] == 0 {
			pk0s[t] = pkSigma
		} else {
			inv := new(big.Int).ModInverse(pkSigma, g.P)
			pk0 := new(big.Int).Mul(c, inv)
			pk0.Mod(pk0, g.P)
			pk0s[t] = pk0
		}
		return nil
	})
	if err := coll.Send(peer, transport.Message{
		Kind: transport.KindOT, Seq: seq, Data: packBigs(pk0s),
	}); err != nil {
		return nil, fmt.Errorf("ot: send PK0s: %w", err)
	}
	// Step 3: receive ciphertext pairs, decrypt the chosen ones.
	msg, err = coll.RecvKind(transport.KindOT, seq)
	if err != nil {
		return nil, fmt.Errorf("ot: recv ciphertexts: %w", err)
	}
	vals, err := unpackBigs(msg.Data, 4*len(choices))
	if err != nil {
		return nil, fmt.Errorf("ot: ciphertext batch for %d choices: %w", len(choices), err)
	}
	out := make([][]byte, len(choices))
	parallel.For(runtime.GOMAXPROCS(0), len(choices), func(t int) error {
		sigma := int(choices[t])
		gr := vals[4*t+2*sigma]
		ct := vals[4*t+2*sigma+1]
		key := new(big.Int).Exp(gr, ks[t], g.P)
		ctBytes := ct.Bytes()
		padded := make([]byte, MessageSize)
		copy(padded[MessageSize-len(ctBytes):], ctBytes)
		out[t] = xorMask(padded, key)
		return nil
	})
	return out, nil
}

// xorMask XORs msg with the SHA-256 digest of key's bytes (truncated).
func xorMask(msg []byte, key *big.Int) []byte {
	digest := sha256.Sum256(key.Bytes())
	out := make([]byte, len(msg))
	for i := range msg {
		out[i] = msg[i] ^ digest[i]
	}
	return out
}

// randomScalar draws a uniform exponent in [1, P-2].
func randomScalar(g Group, entropy io.Reader) (*big.Int, error) {
	max := new(big.Int).Sub(g.P, big.NewInt(2))
	for {
		buf := make([]byte, (g.P.BitLen()+7)/8)
		if _, err := io.ReadFull(entropy, buf); err != nil {
			return nil, fmt.Errorf("ot: entropy: %w", err)
		}
		k := new(big.Int).SetBytes(buf)
		k.Mod(k, max)
		k.Add(k, big.NewInt(1))
		if k.Sign() > 0 {
			return k, nil
		}
	}
}

// randomElement draws a uniform nonidentity group element as g^x.
func randomElement(g Group, entropy io.Reader) (*big.Int, error) {
	x, err := randomScalar(g, entropy)
	if err != nil {
		return nil, err
	}
	return new(big.Int).Exp(g.G, x, g.P), nil
}

// packBigs frames big integers into a word vector: for each value a length
// word followed by its big-endian bytes packed 8 per word.
func packBigs(vals []*big.Int) []uint64 {
	out := []uint64{uint64(len(vals))}
	for _, v := range vals {
		b := v.Bytes()
		out = append(out, uint64(len(b)))
		for i := 0; i < len(b); i += 8 {
			var w uint64
			for k := 0; k < 8 && i+k < len(b); k++ {
				w |= uint64(b[i+k]) << uint(8*k)
			}
			out = append(out, w)
		}
	}
	return out
}

// errCount refuses a batch whose value count is not the one its receiver
// expects. It is built once, so refusing a hostile count allocates nothing.
var errCount = fmt.Errorf("%w: value count does not match the batch", ErrProtocol)

// unpackBigs reverses packBigs for a batch of exactly want values, the
// count the caller's protocol step fixes. Any other count is refused
// before anything is allocated.
func unpackBigs(words []uint64, want int) ([]*big.Int, error) {
	if len(words) == 0 || words[0] != uint64(want) {
		return nil, errCount
	}
	pos := 1
	out := make([]*big.Int, 0, want)
	for i := 0; i < want; i++ {
		if pos >= len(words) {
			return nil, fmt.Errorf("%w: truncated", ErrProtocol)
		}
		blen := int(words[pos])
		pos++
		if blen < 0 || blen > 1<<16 {
			return nil, fmt.Errorf("%w: length %d", ErrProtocol, blen)
		}
		nwords := (blen + 7) / 8
		if pos+nwords > len(words) {
			return nil, fmt.Errorf("%w: truncated value", ErrProtocol)
		}
		b := make([]byte, blen)
		for k := 0; k < blen; k++ {
			b[k] = byte(words[pos+k/8] >> uint(8*(k%8)))
		}
		pos += nwords
		out = append(out, new(big.Int).SetBytes(b))
	}
	return out, nil
}

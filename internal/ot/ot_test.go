package ot

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/transport"
)

// runOT executes one batched OT between two in-memory parties.
func runOT(t *testing.T, pairs [][2][]byte, choices []byte, seed int64) ([][]byte, error) {
	t.Helper()
	g := DefaultGroup()
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var (
		wg      sync.WaitGroup
		sendErr error
		recvOut [][]byte
		recvErr error
	)
	var failOnce sync.Once
	wg.Add(2)
	go func() {
		defer wg.Done()
		coll := transport.NewCollector(net.Node(0))
		sendErr = SendBatch(g, coll, 1, pairs, rand.New(rand.NewSource(seed)), 7)
		if sendErr != nil {
			failOnce.Do(func() { net.Close() })
		}
	}()
	go func() {
		defer wg.Done()
		coll := transport.NewCollector(net.Node(1))
		recvOut, recvErr = ReceiveBatch(g, coll, 0, choices, rand.New(rand.NewSource(seed+1)), 7)
		if recvErr != nil {
			failOnce.Do(func() { net.Close() })
		}
	}()
	wg.Wait()
	if sendErr != nil {
		return nil, sendErr
	}
	return recvOut, recvErr
}

func TestOTTransfersChosenMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 16
	pairs := make([][2][]byte, n)
	choices := make([]byte, n)
	for i := range pairs {
		pairs[i] = [2][]byte{{byte(rng.Intn(256))}, {byte(rng.Intn(256))}}
		choices[i] = byte(rng.Intn(2))
	}
	got, err := runOT(t, pairs, choices, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		want := pairs[i][choices[i]][0]
		if got[i][0] != want {
			t.Fatalf("transfer %d (σ=%d): got %d, want %d", i, choices[i], got[i][0], want)
		}
	}
}

func TestOTAllZeroAndAllOneChoices(t *testing.T) {
	pairs := [][2][]byte{{{0xAA}, {0xBB}}, {{0x01}, {0x02}}}
	got, err := runOT(t, pairs, []byte{0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 0xAA || got[1][0] != 0x01 {
		t.Fatalf("σ=0 run: %v", got)
	}
	got, err = runOT(t, pairs, []byte{1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 0xBB || got[1][0] != 0x02 {
		t.Fatalf("σ=1 run: %v", got)
	}
}

func TestOTValidation(t *testing.T) {
	g := DefaultGroup()
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	coll := transport.NewCollector(net.Node(0))
	rng := rand.New(rand.NewSource(5))
	if err := SendBatch(g, coll, 1, [][2][]byte{{{1, 2}, {3}}}, rng, 0); err == nil {
		t.Error("oversized message accepted")
	}
	if _, err := ReceiveBatch(g, coll, 1, nil, rng, 0); err == nil {
		t.Error("empty choices accepted")
	}
}

func TestOTBadChoiceBit(t *testing.T) {
	pairs := [][2][]byte{{{1}, {2}}}
	if _, err := runOT(t, pairs, []byte{2}, 6); err == nil {
		t.Fatal("non-bit choice accepted")
	}
}

// A failing entropy source must surface as an error, not weak keys.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) {
	return 0, errEntropy
}

var errEntropy = fmt.Errorf("entropy exhausted")

func TestEntropyFailurePropagates(t *testing.T) {
	g := DefaultGroup()
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	coll := transport.NewCollector(net.Node(0))
	if err := SendBatch(g, coll, 1, [][2][]byte{{{1}, {2}}}, failingReader{}, 0); err == nil {
		t.Fatal("sender accepted dead entropy source")
	}
	// Receiver: feed it a C first so it reaches its own entropy draw.
	if err := net.Node(1).Send(0, transport.Message{Kind: transport.KindOT, Seq: 3, Data: packBigsForTest(g)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReceiveBatch(g, coll, 1, []byte{0}, failingReader{}, 3); err == nil {
		t.Fatal("receiver accepted dead entropy source")
	}
}

func packBigsForTest(g Group) []uint64 {
	return packBigs([]*big.Int{big.NewInt(4)})
}

func TestGroupSanity(t *testing.T) {
	g := DefaultGroup()
	if !g.P.ProbablyPrime(20) {
		t.Fatal("group prime is not prime")
	}
	// g must generate a large subgroup: g^((p-1)/2) should be 1 for the
	// quadratic-residue generator 2 in a safe-prime group... RFC 3526 p is
	// a safe prime, and 2 generates the order-q subgroup (q=(p-1)/2).
	q := new(big.Int).Rsh(new(big.Int).Sub(g.P, big.NewInt(1)), 1)
	if new(big.Int).Exp(g.G, q, g.P).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("generator does not lie in the prime-order subgroup")
	}
}

func TestPackUnpackBigs(t *testing.T) {
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(255),
		new(big.Int).Lsh(big.NewInt(1), 200),
		DefaultGroup().P,
	}
	words := packBigs(vals)
	got, err := unpackBigs(words, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("count %d", len(got))
	}
	for i := range vals {
		if got[i].Cmp(vals[i]) != 0 {
			t.Fatalf("value %d: %v != %v", i, got[i], vals[i])
		}
	}
	for name, tc := range map[string]struct {
		words []uint64
		want  int
	}{
		"empty payload":     {nil, 1},
		"truncated payload": {[]uint64{5, 8}, 5},
		"absurd length":     {[]uint64{1, 1 << 30}, 1},
		"fewer than wanted": {words, len(vals) + 1},
		"more than wanted":  {words, len(vals) - 1},
	} {
		if _, err := unpackBigs(tc.words, tc.want); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err %v, want ErrProtocol", name, err)
		}
	}
}

// An honest batch may exceed any fixed cap: 2²⁰ + 1 one-byte values, more
// than the 2²⁰ an earlier cap allowed, round-trip.
func TestUnpackBigsLargeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a million values")
	}
	const n = 1<<20 + 1
	vals := make([]*big.Int, n)
	for i := range vals {
		vals[i] = big.NewInt(int64(1 + i%255))
	}
	got, err := unpackBigs(packBigs(vals), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i].Cmp(vals[i]) != 0 {
			t.Fatalf("value %d: %v != %v", i, got[i], vals[i])
		}
	}
}

// A hostile count is refused before anything is allocated for it.
func TestUnpackBigsHostileCountAllocatesNothing(t *testing.T) {
	hostile := []uint64{1 << 62, 1, 7}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := unpackBigs(hostile, 1); err == nil {
			t.Fatal("hostile count accepted")
		}
	})
	if allocs != 0 {
		t.Fatalf("refusing a hostile count allocated %v times", allocs)
	}
}

// The PK0 the receiver sends must be distributed identically for σ=0 and
// σ=1 (sender privacy): compare a coarse statistic over many runs.
func TestReceiverChoiceHidden(t *testing.T) {
	g := DefaultGroup()
	// Instead of full protocol runs, exercise the key-generation step the
	// sender observes: PK0 = g^k (σ=0) vs C·g^-k (σ=1). Both are uniform
	// in the subgroup; check that parity of the low bit is unbiased in
	// both cases.
	rng := rand.New(rand.NewSource(7))
	c, err := randomElement(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	lowBitOnes := func(sigma int) int {
		ones := 0
		for i := 0; i < 200; i++ {
			k, err := randomScalar(g, rng)
			if err != nil {
				t.Fatal(err)
			}
			pkSigma := new(big.Int).Exp(g.G, k, g.P)
			pk0 := pkSigma
			if sigma == 1 {
				pk0 = new(big.Int).Mul(c, new(big.Int).ModInverse(pkSigma, g.P))
				pk0.Mod(pk0, g.P)
			}
			ones += int(pk0.Bit(0))
		}
		return ones
	}
	z, o := lowBitOnes(0), lowBitOnes(1)
	if z < 60 || z > 140 || o < 60 || o > 140 {
		t.Fatalf("PK0 low-bit counts %d/%d of 200 look biased", z, o)
	}
}

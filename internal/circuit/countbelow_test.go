package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// evalCountBelow runs the compiled MPC-reduced circuit in the clear against
// per-party share vectors and returns the common-identity count.
func evalCountBelow(t *testing.T, c *Circuit, p CountBelowParams, shares [][]uint64) uint64 {
	t.Helper()
	var in []bool
	for k := 0; k < p.Parties; k++ {
		for j := 0; j < p.Identities; j++ {
			in = append(in, PackBits(shares[k][j], p.ShareBits)...)
		}
	}
	out, err := c.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	return UnpackBits(out)
}

func TestCountBelowMatchesPlaintext(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := CountBelowParams{
		Parties:    3,
		Identities: 10,
		ShareBits:  6,
		Thresholds: make([]uint64, 10),
	}
	for j := range p.Thresholds {
		p.Thresholds[j] = uint64(rng.Intn(30) + 1)
	}
	c, err := CountBelow(p)
	if err != nil {
		t.Fatal(err)
	}
	mod := uint64(1) << uint(p.ShareBits)
	for trial := 0; trial < 30; trial++ {
		freqs := make([]uint64, p.Identities)
		shares := make([][]uint64, p.Parties)
		for k := range shares {
			shares[k] = make([]uint64, p.Identities)
		}
		want := uint64(0)
		for j := range freqs {
			freqs[j] = uint64(rng.Intn(40))
			if freqs[j] >= p.Thresholds[j] {
				want++
			}
			// Additively share freqs[j] mod 2^ShareBits.
			var sum uint64
			for k := 0; k < p.Parties-1; k++ {
				shares[k][j] = rng.Uint64() % mod
				sum = (sum + shares[k][j]) % mod
			}
			shares[p.Parties-1][j] = (freqs[j] + mod - sum) % mod
		}
		if got := evalCountBelow(t, c, p, shares); got != want {
			t.Fatalf("trial %d: count = %d, want %d", trial, got, want)
		}
	}
}

func TestCountBelowValidation(t *testing.T) {
	valid := CountBelowParams{Parties: 3, Identities: 2, ShareBits: 4, Thresholds: []uint64{1, 2}}
	if _, err := CountBelow(valid); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []CountBelowParams{
		{Parties: 1, Identities: 2, ShareBits: 4, Thresholds: []uint64{1, 2}},
		{Parties: 3, Identities: 0, ShareBits: 4, Thresholds: nil},
		{Parties: 3, Identities: 2, ShareBits: 0, Thresholds: []uint64{1, 2}},
		{Parties: 3, Identities: 2, ShareBits: 4, Thresholds: []uint64{1}},
		{Parties: 3, Identities: 2, ShareBits: 4, Thresholds: []uint64{0, 1}},
		{Parties: 3, Identities: 2, ShareBits: 4, Thresholds: []uint64{1, 99}},
	}
	for i, p := range bad {
		if _, err := CountBelow(p); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

// The headline scalability claim of Fig. 6: the MPC-reduced circuit size is
// independent of the provider count m, while the pure-MPC circuit grows
// with m. The pure circuit (PureBeta) carries a fixed-point divider whose
// size depends on m only through log m, so its growth is measured against
// the reduced circuit's rather than as a ratio of sizes.
func TestCircuitSizeScaling(t *testing.T) {
	thresholdFor := func(m int) []uint64 { return []uint64{uint64(m / 2)} }
	reducedSize := func(m int) int {
		c, err := CountBelow(CountBelowParams{
			Parties:    3,
			Identities: 1,
			ShareBits:  BitsNeeded(uint64(m)),
			Thresholds: thresholdFor(m),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Stats().Size()
	}
	pureSize := func(m int) int {
		c, err := PureBeta(PureBetaParams{
			Providers: m, Identities: 1, EpsFixed: []uint64{EpsToFixed(0.5, 8)},
			FracBits: 8, CoinBits: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Stats().Size()
	}
	r8, r64 := reducedSize(8), reducedSize(64)
	p8, p64 := pureSize(8), pureSize(64)
	if p64-p8 <= 4*(r64-r8) {
		t.Errorf("pure MPC did not grow with m: size(8)=%d size(64)=%d (reduced %d → %d)", p8, p64, r8, r64)
	}
	// Reduced circuit grows only with log m (share width): tiny growth.
	if r64 > r8*3 {
		t.Errorf("reduced circuit grew too fast: size(8)=%d size(64)=%d", r8, r64)
	}
	if p64 <= r64 {
		t.Errorf("pure MPC (%d) should exceed reduced (%d) at m=64", p64, r64)
	}
}

// Property: for random single-identity instances, circuit output equals the
// direct comparison.
func TestCountBelowQuick(t *testing.T) {
	prop := func(rawFreq uint16, rawThresh uint16) bool {
		const bits = 8
		mod := uint64(1) << bits
		freq := uint64(rawFreq) % 200
		thresh := uint64(rawThresh)%199 + 1
		p := CountBelowParams{Parties: 3, Identities: 1, ShareBits: bits, Thresholds: []uint64{thresh}}
		c, err := CountBelow(p)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(int64(rawFreq)<<16 | int64(rawThresh)))
		s0 := rng.Uint64() % mod
		s1 := rng.Uint64() % mod
		s2 := (freq + 2*mod - s0 - s1) % mod
		in := append(append(PackBits(s0, bits), PackBits(s1, bits)...), PackBits(s2, bits)...)
		out, err := c.Evaluate(in)
		if err != nil {
			return false
		}
		want := uint64(0)
		if freq >= thresh {
			want = 1
		}
		return UnpackBits(out) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompileCountBelow100(b *testing.B) {
	thresholds := make([]uint64, 100)
	for i := range thresholds {
		thresholds[i] = uint64(i + 1)
	}
	p := CountBelowParams{Parties: 3, Identities: 100, ShareBits: 14, Thresholds: thresholds}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CountBelow(p); err != nil {
			b.Fatal(err)
		}
	}
}

package circuit

import (
	"math/rand"
	"testing"
)

// evalReveal drives the MPC-reduced reveal circuit in the clear.
func evalReveal(t *testing.T, c *Circuit, p RevealParams, shares [][]uint64, coins [][]uint64) (hidden []bool, masked []uint64) {
	t.Helper()
	var in []bool
	for k := 0; k < p.Parties; k++ {
		for j := 0; j < p.Identities; j++ {
			in = append(in, PackBits(shares[k][j], p.ShareBits)...)
			in = append(in, PackBits(coins[k][j], p.CoinBits)...)
		}
	}
	out, err := c.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	per := 1 + p.ShareBits
	if len(out) != per*p.Identities {
		t.Fatalf("output length %d, want %d", len(out), per*p.Identities)
	}
	hidden = make([]bool, p.Identities)
	masked = make([]uint64, p.Identities)
	for j := 0; j < p.Identities; j++ {
		hidden[j] = out[j*per]
		masked[j] = UnpackBits(out[j*per+1 : (j+1)*per])
	}
	return hidden, masked
}

func TestRevealSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := RevealParams{
		Parties:      3,
		Identities:   6,
		ShareBits:    7,
		Thresholds:   []uint64{10, 1, 100, 40, 5, 64},
		CoinBits:     8,
		MixThreshold: 64, // λ = 0.25
	}
	c, err := Reveal(p)
	if err != nil {
		t.Fatal(err)
	}
	mod := uint64(1) << uint(p.ShareBits)
	coinMod := uint64(1) << uint(p.CoinBits)
	for trial := 0; trial < 20; trial++ {
		freqs := make([]uint64, p.Identities)
		shares := make([][]uint64, p.Parties)
		coins := make([][]uint64, p.Parties)
		for k := range shares {
			shares[k] = make([]uint64, p.Identities)
			coins[k] = make([]uint64, p.Identities)
		}
		jointCoin := make([]uint64, p.Identities)
		for j := range freqs {
			freqs[j] = uint64(rng.Intn(120))
			var sum uint64
			for k := 0; k < p.Parties-1; k++ {
				shares[k][j] = rng.Uint64() % mod
				sum = (sum + shares[k][j]) % mod
			}
			shares[p.Parties-1][j] = (freqs[j] + mod - sum) % mod
			for k := 0; k < p.Parties; k++ {
				coins[k][j] = rng.Uint64() % coinMod
				jointCoin[j] ^= coins[k][j]
			}
		}
		hidden, masked := evalReveal(t, c, p, shares, coins)
		for j := range freqs {
			common := freqs[j] >= p.Thresholds[j]
			mix := jointCoin[j] < p.MixThreshold
			wantHidden := common || mix
			if hidden[j] != wantHidden {
				t.Fatalf("trial %d identity %d: hidden=%v, want %v (freq=%d t=%d coin=%d)",
					trial, j, hidden[j], wantHidden, freqs[j], p.Thresholds[j], jointCoin[j])
			}
			wantMasked := freqs[j]
			if wantHidden {
				wantMasked = 0
			}
			if masked[j] != wantMasked {
				t.Fatalf("trial %d identity %d: masked=%d, want %d", trial, j, masked[j], wantMasked)
			}
		}
	}
}

func TestRevealMixDisabled(t *testing.T) {
	p := RevealParams{
		Parties:      2,
		Identities:   1,
		ShareBits:    4,
		Thresholds:   []uint64{8},
		CoinBits:     4,
		MixThreshold: 0,
	}
	c, err := Reveal(p)
	if err != nil {
		t.Fatal(err)
	}
	// freq = 5 (below threshold): must be revealed regardless of coins.
	shares := [][]uint64{{3}, {2}}
	coins := [][]uint64{{0}, {0}}
	hidden, masked := evalReveal(t, c, p, shares, coins)
	if hidden[0] || masked[0] != 5 {
		t.Fatalf("hidden=%v masked=%d, want revealed 5", hidden[0], masked[0])
	}
	// freq = 9 (at/above threshold): must be hidden.
	shares = [][]uint64{{4}, {5}}
	hidden, masked = evalReveal(t, c, p, shares, coins)
	if !hidden[0] || masked[0] != 0 {
		t.Fatalf("hidden=%v masked=%d, want hidden 0", hidden[0], masked[0])
	}
}

func TestRevealValidation(t *testing.T) {
	base := RevealParams{Parties: 3, Identities: 1, ShareBits: 4, Thresholds: []uint64{3}, CoinBits: 8, MixThreshold: 10}
	bad := []func(*RevealParams){
		func(p *RevealParams) { p.Parties = 1 },
		func(p *RevealParams) { p.Identities = 0 },
		func(p *RevealParams) { p.ShareBits = 0 },
		func(p *RevealParams) { p.CoinBits = 0 },
		func(p *RevealParams) { p.Thresholds = nil },
		func(p *RevealParams) { p.Thresholds = []uint64{0} },
		func(p *RevealParams) { p.Thresholds = []uint64{99} },
		func(p *RevealParams) { p.MixThreshold = 256 },
	}
	for i, mutate := range bad {
		p := base
		mutate(&p)
		if _, err := Reveal(p); err == nil {
			t.Errorf("bad reveal params %d accepted: %+v", i, p)
		}
	}
	if _, err := Reveal(base); err != nil {
		t.Fatalf("valid reveal params rejected: %v", err)
	}
}

// Reveal-circuit size must be independent of m for the reduced form and
// growing for the pure form (same scalability story as CountBelow).
func TestRevealSizeScaling(t *testing.T) {
	reduced := func(m int) int {
		c, err := Reveal(RevealParams{
			Parties: 3, Identities: 2, ShareBits: BitsNeeded(uint64(m)),
			Thresholds: []uint64{uint64(m / 2), uint64(m / 2)}, CoinBits: 16, MixThreshold: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Stats().Size()
	}
	pure := func(m int) int {
		c, err := PureBeta(PureBetaParams{
			Providers: m, Identities: 2, EpsFixed: []uint64{EpsToFixed(0.5, 8), EpsToFixed(0.5, 8)},
			FracBits: 8, CoinBits: 16, MixThreshold: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Stats().Size()
	}
	if p32, p8 := pure(32), pure(8); p32 <= p8 {
		t.Errorf("pure reveal did not grow: %d vs %d", p8, p32)
	}
	if r32, r8 := reduced(32), reduced(8); r32 > 2*r8 {
		t.Errorf("reduced reveal grew too fast: %d vs %d", r8, r32)
	}
}

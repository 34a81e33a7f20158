package gmw

import (
	"errors"
	"math/bits"
	"testing"

	"repro/internal/circuit"
	"repro/internal/transport"
)

func genOTTriples(t *testing.T, parties, ands, words, lanes int, seed int64) []Triples {
	t.Helper()
	net, err := transport.NewInMem(parties)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	triples, err := GenTriplesOT(net, ands, words, lanes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return triples
}

// The OT-generated triples must satisfy the Beaver invariant exactly.
func TestOTTriplesInvariant(t *testing.T) {
	for _, parties := range []int{2, 3} {
		const ands, lanes = 4, 2
		triples := genOTTriples(t, parties, ands, 1, lanes, int64(parties)*100)
		for tt := 0; tt < ands; tt++ {
			var a, b, c uint64
			for p := 0; p < parties; p++ {
				a ^= triples[p].A[tt]
				b ^= triples[p].B[tt]
				c ^= triples[p].C[tt]
			}
			if a&b != c {
				t.Fatalf("parties=%d word-triple %d: a=%b b=%b c=%b", parties, tt, a, b, c)
			}
		}
	}
}

// Live lanes get Beaver triples and dead lanes the zero triple, at every
// party: two AND gates over two words with five live instances leave lanes
// 5–63 of word 0 and all of word 1 dead.
func TestOTTriplesLiveLanes(t *testing.T) {
	for _, tc := range []struct {
		l, lanes int
		want     uint64
	}{
		{0, 0, 0}, {0, 5, 0b11111}, {1, 5, 0}, {0, 64, ^uint64(0)}, {1, 70, 0b111111}, {2, 70, 0},
	} {
		if got := liveMask(tc.l, tc.lanes); got != tc.want {
			t.Errorf("liveMask(%d, %d) = %#x, want %#x", tc.l, tc.lanes, got, tc.want)
		}
	}
	const ands, words, lanes = 2, 2, 5
	triples := genOTTriples(t, 3, ands, words, lanes, 11)
	const live = 1<<lanes - 1
	var seen uint64
	for i := 0; i < ands*words; i++ {
		var a, b, c uint64
		for p, pt := range triples {
			if len(pt.A) != ands*words || len(pt.B) != ands*words || len(pt.C) != ands*words {
				t.Fatalf("party %d holds %d/%d/%d words, want %d", p, len(pt.A), len(pt.B), len(pt.C), ands*words)
			}
			dead := ^uint64(live)
			if i%words == 1 {
				dead = ^uint64(0)
			}
			if (pt.A[i]|pt.B[i]|pt.C[i])&dead != 0 {
				t.Fatalf("party %d word-triple %d: dead lanes set (%#x %#x %#x)", p, i, pt.A[i], pt.B[i], pt.C[i])
			}
			a ^= pt.A[i]
			b ^= pt.B[i]
			c ^= pt.C[i]
			seen |= pt.A[i] | pt.B[i]
		}
		if a&b != c {
			t.Fatalf("word-triple %d: a&b != c on live lanes", i)
		}
	}
	if seen != live {
		t.Fatalf("live lanes never drew a share bit: %05b", seen)
	}
}

func TestOTTriplesValidation(t *testing.T) {
	net, err := transport.NewInMem(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := GenTriplesOT(net, 4, 1, 64, 1); err == nil {
		t.Error("single party accepted")
	}
	net2, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net2.Close()
	for _, bad := range [][3]int{{-1, 1, 1}, {1, 0, 0}, {1, 1, -1}, {1, 1, 65}, {1, 2, 129}} {
		if _, err := GenTriplesOT(net2, bad[0], bad[1], bad[2], 1); err == nil {
			t.Errorf("ands=%d words=%d lanes=%d accepted", bad[0], bad[1], bad[2])
		}
	}
	// Nothing live: no transfer, zero triples of the requested shape.
	triples, err := GenTriplesOT(net2, 3, 2, 0, 1)
	if err != nil || len(triples) != 2 || len(triples[1].C) != 6 {
		t.Fatalf("zero-lane preprocessing: %v, %d sets", err, len(triples))
	}
	if _, err := GenTriplesWideOT(net2, 0, 1); err != nil {
		t.Fatalf("zero-count preprocessing: %v", err)
	}
}

// Full GMW evaluation with OT preprocessing end to end: each of four
// input pairs is a live lane, and the secure result must equal plaintext
// evaluation there.
func TestRunWithOTTriples(t *testing.T) {
	const width = 3
	b := circuit.NewBuilder()
	x := b.InputVec(0, width)
	y := b.InputVec(1, width)
	sum, err := b.Add(x, y)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := b.GreaterEq(sum, circuit.ConstVec(5, width))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Output(ge); err != nil {
		t.Fatal(err)
	}
	for _, w := range sum {
		if err := b.Output(w); err != nil {
			t.Fatal(err)
		}
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct{ vx, vy uint64 }{{3, 4}, {0, 0}, {7, 7}, {2, 2}}
	// Preprocess with OT on one network, evaluate on a fresh one (as a
	// real offline/online split would).
	triples := genOTTriples(t, 2, circ.Stats().AndGates, 1, len(cases), 42)
	inputs := [][]uint64{make([]uint64, width), make([]uint64, width)}
	for k, tc := range cases {
		for i := 0; i < width; i++ {
			inputs[0][i] |= (tc.vx >> uint(i) & 1) << uint(k)
			inputs[1][i] |= (tc.vy >> uint(i) & 1) << uint(k)
		}
	}
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, circ, 1, inputs, triples, 7, Open)
	net.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkInstances(t, circ, 1, inputs, res.Outputs, len(cases))
}

// Triple-shape validation: a missing party's set, and sets shorter than
// the circuit's AND count.
func TestRunWithTriplesValidation(t *testing.T) {
	circ := andGate(t)
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	inputs := [][]uint64{{1}, {1}}
	if _, err := Run(net, circ, 1, inputs, []Triples{{}}, 1, Open); !errors.Is(err, ErrTripleShape) {
		t.Errorf("one triple set for two parties: %v, want ErrTripleShape", err)
	}
	if _, err := Run(net, circ, 1, inputs, []Triples{{}, {}}, 1, Open); !errors.Is(err, ErrTripleShape) {
		t.Errorf("empty triple sets: %v, want ErrTripleShape", err)
	}
}

// OT-generated preprocessing must be as uniform as dealer output: a single
// party's shares don't reveal the secrets.
func TestOTTriplesShareUniformity(t *testing.T) {
	const ands, lanes = 2, 32
	triples := genOTTriples(t, 2, ands, 1, lanes, 9)
	ones := 0
	for _, v := range triples[0].C {
		ones += bits.OnesCount64(v)
	}
	// With 64 samples this is a loose sanity check, not a sharp bound.
	if ones == 0 || ones == ands*lanes {
		t.Fatalf("party 0's C shares are constant (%d ones of %d)", ones, ands*lanes)
	}
}

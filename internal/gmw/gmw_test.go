package gmw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/transport"
)

// runInMem evaluates circ over `words` words per wire on a fresh in-memory
// network with dealer triples and opened outputs.
func runInMem(t testing.TB, parties int, circ *circuit.Circuit, words int, inputs [][]uint64, seed int64) *Result {
	t.Helper()
	net, err := transport.NewInMem(parties)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := runDealer(net, circ, words, inputs, seed, Open)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runDealer deals word-triples for circ from seed and runs it over net.
func runDealer(net transport.Network, circ *circuit.Circuit, words int, inputs [][]uint64, seed int64, mode Mode) (*Result, error) {
	triples, err := GenTriplesWideSharded(seed, net.Size(), circ.Stats().AndGates*words, 2)
	if err != nil {
		return nil, err
	}
	return Run(net, circ, words, inputs, triples, seed, mode)
}

// randomInputs draws `words` random words per input wire for every party.
func randomInputs(rng *rand.Rand, circ *circuit.Circuit, parties, words int) [][]uint64 {
	inputs := make([][]uint64, parties)
	for _, in := range circ.Inputs() {
		for l := 0; l < words; l++ {
			inputs[in.Party] = append(inputs[in.Party], rng.Uint64())
		}
	}
	return inputs
}

// instanceInputs extracts instance i's private bits from word-shaped
// inputs, flattened in circ.Inputs() order (the order circ.Evaluate takes).
func instanceInputs(circ *circuit.Circuit, words int, inputs [][]uint64, i int) []bool {
	cursor := make([]int, len(inputs))
	flat := make([]bool, 0, len(circ.Inputs()))
	for _, in := range circ.Inputs() {
		w := inputs[in.Party][cursor[in.Party]*words+i/Lanes]
		cursor[in.Party]++
		flat = append(flat, w>>uint(i%Lanes)&1 == 1)
	}
	return flat
}

// checkInstances compares the first `instances` instances of opened output
// words against plaintext evaluation.
func checkInstances(t testing.TB, circ *circuit.Circuit, words int, inputs [][]uint64, outputs []uint64, instances int) {
	t.Helper()
	if len(outputs) != len(circ.Outputs())*words {
		t.Fatalf("%d output words, want %d", len(outputs), len(circ.Outputs())*words)
	}
	for i := 0; i < instances; i++ {
		want, err := circ.Evaluate(instanceInputs(circ, words, inputs, i))
		if err != nil {
			t.Fatal(err)
		}
		for o, w := range want {
			if got := outputs[o*words+i/Lanes]>>uint(i%Lanes)&1 == 1; got != w {
				t.Fatalf("instance %d output %d: secure=%v plain=%v", i, o, got, w)
			}
		}
	}
}

func TestGenTriplesInvariant(t *testing.T) {
	for _, parties := range []int{2, 3, 7} {
		triples, err := GenTriplesWideSharded(int64(parties), parties, 100, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(triples) != parties {
			t.Fatalf("got %d party slices", len(triples))
		}
		for tt := 0; tt < 100; tt++ {
			var a, b, c uint64
			for p := 0; p < parties; p++ {
				a ^= triples[p].A[tt]
				b ^= triples[p].B[tt]
				c ^= triples[p].C[tt]
			}
			if a&b != c {
				t.Fatalf("parties=%d word-triple %d: a&b != c", parties, tt)
			}
		}
	}
}

func TestGenTriplesValidation(t *testing.T) {
	if _, err := GenTriplesWideSharded(2, 1, 5, 2); err == nil {
		t.Error("parties=1 accepted")
	}
	if _, err := GenTriplesWideSharded(2, 3, -1, 2); err == nil {
		t.Error("negative count accepted")
	}
}

// Two-party AND truth table, the smallest secure computation: the four
// rows are lanes 0–3 of one execution.
func TestTwoPartyAND(t *testing.T) {
	res := runInMem(t, 2, andGate(t), 1, [][]uint64{{0b1100}, {0b1010}}, 3)
	if got := res.Outputs[0] & 0b1111; got != 0b1000 {
		t.Fatalf("AND truth table = %04b, want 1000", got)
	}
}

// Secure evaluation must equal plaintext evaluation on a deep mixed
// circuit, instance by instance, over several words per wire.
func TestSecureMatchesPlaintext(t *testing.T) {
	circ := wideTestCircuit(t)
	const words = 3
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 3; trial++ {
		inputs := randomInputs(rng, circ, 3, words)
		res := runInMem(t, 3, circ, words, inputs, int64(trial))
		checkInstances(t, circ, words, inputs, res.Outputs, Lanes*words)
		if res.Rounds != 2+len(circ.AndRounds()) {
			t.Fatalf("Rounds = %d, want %d", res.Rounds, 2+len(circ.AndRounds()))
		}
	}
}

// Property: random circuits over random inputs — secure == plaintext in
// every lane.
func TestSecureMatchesPlaintextQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parties, circ, ok := randomCircuit(rng)
		if !ok {
			return true
		}
		inputs := randomInputs(rng, circ, parties, 1)
		net, err := transport.NewInMem(parties)
		if err != nil {
			return false
		}
		defer net.Close()
		res, err := runDealer(net, circ, 1, inputs, seed, Open)
		if err != nil {
			return false
		}
		for i := 0; i < Lanes; i++ {
			want, err := circ.Evaluate(instanceInputs(circ, 1, inputs, i))
			if err != nil {
				return false
			}
			for o, w := range want {
				if res.Outputs[o]>>uint(i)&1 == 1 != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// End-to-end: CountBelow circuit evaluated securely by 3 coordinators,
// each lane an independent frequency vector.
func TestSecureCountBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := circuit.CountBelowParams{
		Parties:    3,
		Identities: 8,
		ShareBits:  7,
		Thresholds: []uint64{3, 10, 50, 1, 7, 20, 64, 2},
	}
	circ, err := circuit.CountBelow(p)
	if err != nil {
		t.Fatal(err)
	}
	mod := uint64(1) << uint(p.ShareBits)
	// inputs[k] holds party k's share bit planes: identity j, bit i is
	// wire j·ShareBits + i, and lane k of its word is instance k's bit.
	inputs := make([][]uint64, p.Parties)
	for k := range inputs {
		inputs[k] = make([]uint64, p.Identities*p.ShareBits)
	}
	var want [Lanes]uint64
	for lane := 0; lane < Lanes; lane++ {
		for j := 0; j < p.Identities; j++ {
			freq := uint64(rng.Intn(100))
			if freq >= p.Thresholds[j] {
				want[lane]++
			}
			var sum uint64
			for k := 0; k < p.Parties; k++ {
				share := rng.Uint64() % mod
				if k == p.Parties-1 {
					share = (freq + mod - sum) % mod
				}
				sum = (sum + share) % mod
				for i := 0; i < p.ShareBits; i++ {
					inputs[k][j*p.ShareBits+i] |= (share >> uint(i) & 1) << uint(lane)
				}
			}
		}
	}
	res := runInMem(t, 3, circ, 1, inputs, 6)
	for lane := 0; lane < Lanes; lane++ {
		var got uint64
		for i, w := range res.Outputs {
			got |= (w >> uint(lane) & 1) << uint(i)
		}
		if got != want[lane] {
			t.Fatalf("lane %d: secure CountBelow = %d, want %d", lane, got, want[lane])
		}
	}
}

// Input-shape validation: party count, words per wire, per-party word
// count and input owners outside the network.
func TestRunValidation(t *testing.T) {
	circ := andGate(t)
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	triples, err := GenTriplesWideSharded(1, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(net, circ, 1, [][]uint64{{1}}, triples, 1, Open); err == nil {
		t.Error("wrong party count accepted")
	}
	if _, err := Run(net, circ, 1, [][]uint64{{1, 2}, {3}}, triples, 1, Open); err == nil {
		t.Error("wrong per-party word count accepted")
	}
	if _, err := Run(net, circ, 0, [][]uint64{nil, nil}, triples, 1, Open); err == nil {
		t.Error("zero words per wire accepted")
	}
	if _, err := Run(net, circ, 2, [][]uint64{{1}, {2}}, triples, 1, Open); err == nil {
		t.Error("one word per wire accepted for a two-word run")
	}
	// Circuit owned by party 2 in a 2-party network.
	b2 := circuit.NewBuilder()
	x2 := b2.Input(2)
	if err := b2.Output(b2.NOT(x2)); err != nil {
		t.Fatal(err)
	}
	circ2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(net, circ2, 1, [][]uint64{nil, nil}, triples, 1, Open); err == nil {
		t.Error("out-of-range input owner accepted")
	}
}

// andGate is the two-party one-AND circuit x ∧ y.
func andGate(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	if err := b.Output(b.AND(x, y)); err != nil {
		t.Fatal(err)
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return circ
}

// A wide network: 15 parties evaluating a shared comparison. Exercises the
// all-to-all AND openings at a scale beyond the coordinator counts used in
// the pipeline.
func TestFifteenParties(t *testing.T) {
	const parties = 15
	b := circuit.NewBuilder()
	bits := make([]circuit.Wire, parties)
	for p := 0; p < parties; p++ {
		bits[p] = b.Input(p)
	}
	cnt, err := b.PopCount(bits)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := b.GreaterEq(cnt, circuit.ConstVec(8, len(cnt)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Output(ge); err != nil {
		t.Fatal(err)
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	inputs := randomInputs(rng, circ, parties, 1)
	res := runInMem(t, parties, circ, 1, inputs, 22)
	for lane := 0; lane < Lanes; lane++ {
		ones := 0
		for p := range inputs {
			ones += int(inputs[p][0] >> uint(lane) & 1)
		}
		if got := res.Outputs[0]>>uint(lane)&1 == 1; got != (ones >= 8) {
			t.Fatalf("lane %d: majority-ish vote wrong (ones=%d)", lane, ones)
		}
	}
}

// A party with no inputs must still participate correctly.
func TestPartyWithoutInputs(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(0)
	if err := b.Output(b.AND(x, y)); err != nil {
		t.Fatal(err)
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const x0, y0 = 0xF0F0_F0F0_F0F0_F0F0, 0xFF00_FF00_FF00_FF00
	res := runInMem(t, 3, circ, 1, [][]uint64{{x0, y0}, nil, nil}, 7)
	if res.Outputs[0] != x0&y0 {
		t.Fatalf("AND = %#x, want %#x", res.Outputs[0], uint64(x0&y0))
	}
}

// Shares kept over TCP: no output round, and the three parties' share
// words XOR to the sum in every lane.
func TestSecureOverTCP(t *testing.T) {
	const width = 4
	b := circuit.NewBuilder()
	x := b.InputVec(0, width)
	y := b.InputVec(1, width)
	sum, err := b.Add(x, y)
	if err != nil {
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
	net, err := transport.NewTCP(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rng := rand.New(rand.NewSource(8))
	inputs := randomInputs(rng, circ, 3, 1)
	res, err := runDealer(net, circ, 1, inputs, 8, KeepShared)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1+len(circ.AndRounds()) {
		t.Fatalf("Rounds = %d, want %d", res.Rounds, 1+len(circ.AndRounds()))
	}
	opened := make([]uint64, width)
	for _, sh := range res.OutputShares {
		xorWords(opened, sh)
	}
	checkInstances(t, circ, 1, inputs, opened, Lanes)
}

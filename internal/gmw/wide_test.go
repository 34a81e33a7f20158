package gmw

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/transport"
)

// Dealt word-triples hold the invariant in every lane, and the lanes are
// independent coins: a dealer that broadcast one bit across a word would
// pass the invariant yet give all 64 instances of an AND gate the same
// mask.
func TestGenTriplesWideInvariant(t *testing.T) {
	const parties, count = 3, 2*tripleShard + 5
	triples, err := GenTriplesWideSharded(5, parties, count, 2)
	if err != nil {
		t.Fatal(err)
	}
	broadcast := 0
	for tt := 0; tt < count; tt++ {
		var a, b, c uint64
		for p := 0; p < parties; p++ {
			a ^= triples[p].A[tt]
			b ^= triples[p].B[tt]
			c ^= triples[p].C[tt]
		}
		if a&b != c {
			t.Fatalf("word-triple %d: a&b != c", tt)
		}
		for _, w := range []uint64{a, b, triples[0].A[tt], triples[0].C[tt]} {
			if w == 0 || w == ^uint64(0) {
				broadcast++
			}
		}
	}
	if broadcast > 0 {
		t.Fatalf("%d words carry one bit in all 64 lanes", broadcast)
	}
}

// The sharded dealer is a function of (seed, shard): dealing fewer
// ordinals gives a prefix of the longer deal, and another seed another
// deal.
func TestGenTriplesWideShardedDeterministic(t *testing.T) {
	const parties, count = 3, 9000 // spans multiple 4096-word shards
	long, err := GenTriplesWideSharded(77, parties, count, 8)
	if err != nil {
		t.Fatal(err)
	}
	short, err := GenTriplesWideSharded(77, parties, tripleShard+10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parties; p++ {
		for tt := range short[p].A {
			if short[p].A[tt] != long[p].A[tt] || short[p].B[tt] != long[p].B[tt] || short[p].C[tt] != long[p].C[tt] {
				t.Fatalf("party %d ordinal %d: a shorter deal is not a prefix", p, tt)
			}
		}
	}
	other, err := GenTriplesWideSharded(78, parties, count, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for tt := 0; tt < count; tt++ {
		if other[0].A[tt] == long[0].A[tt] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 77 and 78 deal %d equal words", same)
	}
}

// OT-backed triples with all 64 lanes live (the benchmark's per-word
// preprocessing cost).
func TestGenTriplesWideOT(t *testing.T) {
	if testing.Short() {
		t.Skip("public-key OT preprocessing is slow")
	}
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	triples, err := GenTriplesWideOT(net, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 2; tt++ {
		var a, b, c uint64
		for p := range triples {
			a ^= triples[p].A[tt]
			b ^= triples[p].B[tt]
			c ^= triples[p].C[tt]
		}
		if a&b != c {
			t.Fatalf("OT word-triple %d invalid", tt)
		}
		if a == 0 || b == 0 {
			t.Fatalf("OT word-triple %d has a dead lane word", tt)
		}
	}
}

// wideTestCircuit builds a deep mixed three-party circuit: adders, a
// comparison, an equality, word outputs.
func wideTestCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	const width = 6
	b := circuit.NewBuilder()
	x := b.InputVec(0, width)
	y := b.InputVec(1, width)
	z := b.InputVec(2, width)
	sum, err := b.Add(x, y)
	if err != nil {
		t.Fatal(err)
	}
	sum, err = b.Add(sum, z)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := b.GreaterEq(sum, circuit.ConstVec(17, width))
	if err != nil {
		t.Fatal(err)
	}
	eq, err := b.Equal(x, z)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Output(ge); err != nil {
		t.Fatal(err)
	}
	if err := b.Output(eq); err != nil {
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
	return circ
}

// One run must equal 64 plaintext evaluations, lane for lane.
func TestWideMatchesPlaintextLanes(t *testing.T) {
	circ := wideTestCircuit(t)
	rng := rand.New(rand.NewSource(12))
	inputs := randomInputs(rng, circ, 3, 1)
	res := runInMem(t, 3, circ, 1, inputs, 13)
	if res.Rounds != 2+len(circ.AndRounds()) {
		t.Fatalf("Rounds = %d, want %d", res.Rounds, 2+len(circ.AndRounds()))
	}
	checkInstances(t, circ, 1, inputs, res.Outputs, Lanes)
}

// Shares-kept mode: no output round, and the parties' share words XOR to
// the plaintext outputs.
func TestWideSharedReconstructs(t *testing.T) {
	circ := wideTestCircuit(t)
	rng := rand.New(rand.NewSource(18))
	inputs := randomInputs(rng, circ, 3, 1)
	net, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := runDealer(net, circ, 1, inputs, 19, KeepShared)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs != nil {
		t.Fatal("shared run opened outputs")
	}
	if res.Rounds != 1+len(circ.AndRounds()) {
		t.Fatalf("Rounds = %d, want %d (no output round)", res.Rounds, 1+len(circ.AndRounds()))
	}
	opened := make([]uint64, len(circ.Outputs()))
	for _, partyShares := range res.OutputShares {
		if len(partyShares) != len(opened) {
			t.Fatalf("party holds %d output words, want %d", len(partyShares), len(opened))
		}
		xorWords(opened, partyShares)
	}
	checkInstances(t, circ, 1, inputs, opened, Lanes)
}

// Triple-shape validation of a multi-word run: sets that cover the AND
// gates for one word but not for AND gates × words.
func TestRunWideValidation(t *testing.T) {
	circ := andGate(t)
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	inputs := [][]uint64{{1, 2}, {3, 4}}
	oneWord, err := GenTriplesWideSharded(1, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(net, circ, 2, inputs, oneWord, 1, Open); !errors.Is(err, ErrTripleShape) {
		t.Errorf("one word-triple for a two-word run: %v, want ErrTripleShape", err)
	}
}

// randomCircuit builds a random 2–4 party circuit of 25 XOR/AND/NOT/OR
// gates over 2–4 input bits per party, with up to 5 outputs, drawing
// everything from rng. ok is false for a degenerate draw.
func randomCircuit(rng *rand.Rand) (parties int, circ *circuit.Circuit, ok bool) {
	parties = 2 + rng.Intn(3)
	b := circuit.NewBuilder()
	pool := make([]circuit.Wire, 0, 40)
	for p := 0; p < parties; p++ {
		pool = append(pool, b.InputVec(p, 2+rng.Intn(3))...)
	}
	for g := 0; g < 25; g++ {
		a := pool[rng.Intn(len(pool))]
		c := pool[rng.Intn(len(pool))]
		var w circuit.Wire
		switch rng.Intn(4) {
		case 0:
			w = b.XOR(a, c)
		case 1:
			w = b.AND(a, c)
		case 2:
			w = b.NOT(a)
		default:
			w = b.OR(a, c)
		}
		if !w.IsConst() {
			pool = append(pool, w)
		}
	}
	outs := 0
	for i := len(pool) - 1; i >= 0 && outs < 5; i-- {
		if err := b.Output(pool[i]); err == nil {
			outs++
		}
	}
	if outs == 0 {
		return 0, nil, false
	}
	circ, err := b.Build()
	if err != nil {
		return 0, nil, false
	}
	return parties, circ, true
}

// fuzzCircuit is randomCircuit for fuzz targets: a degenerate draw skips
// the case.
func fuzzCircuit(t *testing.T, rng *rand.Rand) (int, *circuit.Circuit) {
	t.Helper()
	parties, circ, ok := randomCircuit(rng)
	if !ok {
		t.Skip("degenerate circuit")
	}
	return parties, circ
}

// shortAndNet drops the last word of every AND-layer and output message
// party 0 sends.
type shortAndNet struct{ transport.Network }

func (n shortAndNet) Node(id int) transport.Node { return shortAndNode{n.Network.Node(id)} }

type shortAndNode struct{ transport.Node }

func (n shortAndNode) Send(to int, m transport.Message) error {
	if n.ID() == 0 && (m.Kind == transport.KindGMWAnd || m.Kind == transport.KindGMWOutput) {
		m.Data = m.Data[:len(m.Data)-1]
	}
	return n.Node.Send(to, m)
}

// FuzzWideWordsEquivalence checks the word axis of the evaluator on the
// random circuits of FuzzGMWWideEquivalence: a run over L ∈ [1, 9] words
// per wire must open, word for word, what L one-word runs open, and its
// kept shares must XOR to the same words. A message or a triple set one
// word short must fail with an error, not a panic.
func FuzzWideWordsEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(3))
	f.Add(int64(42), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, l uint8) {
		words := int(l%9) + 1
		rng := rand.New(rand.NewSource(seed))
		parties, circ := fuzzCircuit(t, rng)
		inputs := randomInputs(rng, circ, parties, words)
		andWords := circ.Stats().AndGates * words
		triples, err := GenTriplesWideSharded(seed, parties, andWords, 2)
		if err != nil {
			t.Fatal(err)
		}
		run := func(net transport.Network, mode Mode, triples []Triples) (*Result, error) {
			defer net.Close()
			return Run(net, circ, words, inputs, triples, seed, mode)
		}
		newNet := func() transport.Network {
			net, err := transport.NewInMem(parties)
			if err != nil {
				t.Fatal(err)
			}
			return net
		}
		opened, err := run(newNet(), Open, triples)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := run(newNet(), KeepShared, triples)
		if err != nil {
			t.Fatal(err)
		}
		outs := len(circ.Outputs())
		for l := 0; l < words; l++ {
			one := make([][]uint64, parties)
			for p := range one {
				for i := 0; i < len(inputs[p])/words; i++ {
					one[p] = append(one[p], inputs[p][i*words+l])
				}
			}
			ref := runInMem(t, parties, circ, 1, one, seed+int64(l)+1)
			for i := 0; i < outs; i++ {
				if got := opened.Outputs[i*words+l]; got != ref.Outputs[i] {
					t.Fatalf("L=%d output %d word %d: %#x, one-word run %#x", words, i, l, got, ref.Outputs[i])
				}
				var x uint64
				for _, sh := range kept.OutputShares {
					x ^= sh[i*words+l]
				}
				if x != ref.Outputs[i] {
					t.Fatalf("L=%d output %d word %d: kept shares XOR to %#x, one-word run %#x", words, i, l, x, ref.Outputs[i])
				}
			}
		}

		if _, err := run(shortAndNet{newNet()}, Open, triples); !errors.Is(err, ErrProtocol) {
			t.Fatalf("L=%d: message one word short gave %v, want ErrProtocol", words, err)
		}
		if andWords > 0 {
			short := append([]Triples(nil), triples...)
			short[parties-1].C = short[parties-1].C[:andWords-1]
			if _, err := run(newNet(), Open, short); !errors.Is(err, ErrTripleShape) {
				t.Fatalf("L=%d: triple set one word short gave %v, want ErrTripleShape", words, err)
			}
		}
	})
}

// FuzzGMWWideEquivalence drives random circuits and random lane words —
// including ragged words where only the low `active` lanes carry data —
// through the evaluator and cross-checks every active lane against
// plaintext evaluation.
func FuzzGMWWideEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(64))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(37))
	f.Fuzz(func(t *testing.T, seed int64, active uint8) {
		lanes := int(active%64) + 1 // 1..64 active lanes (ragged word model)
		rng := rand.New(rand.NewSource(seed))
		parties, circ := fuzzCircuit(t, rng)
		mask := ^uint64(0) >> uint(64-lanes)
		inputs := randomInputs(rng, circ, parties, 1)
		for p := range inputs {
			for i := range inputs[p] {
				inputs[p][i] &= mask // padded lanes carry zeros
			}
		}
		res := runInMem(t, parties, circ, 1, inputs, seed)
		checkInstances(t, circ, 1, inputs, res.Outputs, lanes)
	})
}

// Fault injection over a multi-word run: crash, total loss, corruption.
// The run must fail loudly (or detect the corruption), never hang or
// return silently wrong openings.
func TestWideFaultInjection(t *testing.T) {
	circ := andCircuit(t)
	const words = 4
	inputs := make([][]uint64, 3)
	for p := range inputs {
		inputs[p] = []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	}
	run := func(net transport.Network, seed int64) error {
		_, err := runDealer(net, circ, words, inputs, seed, Open)
		return err
	}

	t.Run("crashed party", func(t *testing.T) {
		inner, err := transport.NewInMem(3)
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewFaulty(inner, transport.FaultPlan{FailSendFrom: map[int]bool{1: true}})
		defer net.Close()
		done := make(chan error, 1)
		go func() { done <- run(net, 1) }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("MPC succeeded despite crashed party")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("MPC hung with crashed party")
		}
	})

	t.Run("all messages dropped", func(t *testing.T) {
		inner, err := transport.NewInMem(3)
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewFaulty(inner, transport.FaultPlan{DropRate: 1, Seed: 2})
		done := make(chan error, 1)
		go func() { done <- run(net, 3) }()
		time.Sleep(50 * time.Millisecond)
		net.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("MPC succeeded with every message dropped")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("MPC hung after network close")
		}
	})

	t.Run("corrupted traffic detected", func(t *testing.T) {
		detected := 0
		const runs = 10
		for i := 0; i < runs; i++ {
			inner, err := transport.NewInMem(3)
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewFaulty(inner, transport.FaultPlan{CorruptRate: 0.5, Seed: int64(i)})
			err = run(net, int64(i))
			net.Close()
			if err != nil {
				detected++
			}
		}
		if detected == 0 {
			t.Fatal("no corrupted run was detected across output reconstruction")
		}
	})
}

// Opened outputs over TCP: a 4-bit adder in every lane.
func TestWideOverTCP(t *testing.T) {
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
	net, err := transport.NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rng := rand.New(rand.NewSource(23))
	inputs := randomInputs(rng, circ, 2, 1)
	res, err := runDealer(net, circ, 1, inputs, 24, Open)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < Lanes; k++ {
		var vx, vy uint64
		for i := 0; i < width; i++ {
			vx |= inputs[0][i] >> uint(k) & 1 << uint(i)
			vy |= inputs[1][i] >> uint(k) & 1 << uint(i)
		}
		var got uint64
		for i := 0; i < width; i++ {
			got |= res.Outputs[i] >> uint(k) & 1 << uint(i)
		}
		if want := (vx + vy) % (1 << width); got != want {
			t.Fatalf("lane %d: %d+%d = %d over TCP, want %d", k, vx, vy, got, want)
		}
	}
}

// BenchmarkWideAdd32 times a 32-bit adder over one word per wire: 64
// instances per execution (÷64 for the per-instance cost).
func BenchmarkWideAdd32(b *testing.B) {
	const width = 32
	bld := circuit.NewBuilder()
	x := bld.InputVec(0, width)
	y := bld.InputVec(1, width)
	sum, err := bld.Add(x, y)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range sum {
		if err := bld.Output(w); err != nil {
			b.Fatal(err)
		}
	}
	circ, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	inputs := randomInputs(rng, circ, 2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := transport.NewInMem(2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runDealer(net, circ, 1, inputs, int64(i), Open); err != nil {
			b.Fatal(err)
		}
		net.Close()
	}
}

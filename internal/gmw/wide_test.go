package gmw

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/transport"
)

func TestGenTriplesWideInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, parties := range []int{2, 3, 7} {
		triples, err := GenTriplesWide(rng, parties, 50)
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt < 50; tt++ {
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
	if _, err := GenTriplesWide(rng, 1, 5); err == nil {
		t.Error("parties=1 accepted")
	}
	if _, err := GenTriplesWide(rng, 3, -1); err == nil {
		t.Error("negative count accepted")
	}
}

// The sharded wide dealer must be bit-identical at any worker count and
// still satisfy the triple invariant.
func TestGenTriplesWideShardedDeterministic(t *testing.T) {
	const parties, count = 3, 9000 // spans multiple 4096-word shards
	one, err := GenTriplesWideSharded(77, parties, count, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := GenTriplesWideSharded(77, parties, count, 8)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parties; p++ {
		for tt := 0; tt < count; tt++ {
			if one[p].A[tt] != eight[p].A[tt] || one[p].B[tt] != eight[p].B[tt] || one[p].C[tt] != eight[p].C[tt] {
				t.Fatalf("party %d ordinal %d differs between 1 and 8 workers", p, tt)
			}
		}
	}
	for tt := 0; tt < count; tt++ {
		var a, b, c uint64
		for p := 0; p < parties; p++ {
			a ^= one[p].A[tt]
			b ^= one[p].B[tt]
			c ^= one[p].C[tt]
		}
		if a&b != c {
			t.Fatalf("sharded word-triple %d invalid", tt)
		}
	}
}

// OT-backed wide triples: 64 scalar OT triples per word, packed lane-wise.
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
	}
}

// wideTestCircuit builds the same deep mixed circuit the scalar
// equivalence test uses: adders, a comparison, an equality, word outputs.
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

// laneInputs extracts lane k of word-shaped inputs as per-party bools.
func laneInputs(inputs [][]uint64, k int) [][]bool {
	out := make([][]bool, len(inputs))
	for p, words := range inputs {
		out[p] = make([]bool, len(words))
		for i, w := range words {
			out[p][i] = w>>uint(k)&1 == 1
		}
	}
	return out
}

// One wide run must equal 64 plaintext evaluations, lane for lane.
func TestWideMatchesPlaintextLanes(t *testing.T) {
	circ := wideTestCircuit(t)
	rng := rand.New(rand.NewSource(12))
	inputs := make([][]uint64, 3)
	nOwned := make([]int, 3)
	for _, in := range circ.Inputs() {
		nOwned[in.Party]++
	}
	for p := range inputs {
		inputs[p] = make([]uint64, nOwned[p])
		for i := range inputs[p] {
			inputs[p][i] = rng.Uint64()
		}
	}
	net, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := RunWide(net, circ, inputs, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2+len(circ.AndRounds()) {
		t.Fatalf("Rounds = %d, want %d", res.Rounds, 2+len(circ.AndRounds()))
	}
	for k := 0; k < WideLanes; k++ {
		lane := laneInputs(inputs, k)
		var flat []bool
		for _, in := range circ.Inputs() {
			flat = append(flat, lane[in.Party][0])
			lane[in.Party] = lane[in.Party][1:]
		}
		want, err := circ.Evaluate(flat)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got := res.Outputs[i]>>uint(k)&1 == 1; got != w {
				t.Fatalf("lane %d output %d: wide=%v plain=%v", k, i, got, w)
			}
		}
	}
}

// One sampled lane must also agree with a full scalar GMW execution — the
// two protocol paths, not just the two evaluation semantics, coincide.
func TestWideMatchesScalarProtocol(t *testing.T) {
	circ := wideTestCircuit(t)
	rng := rand.New(rand.NewSource(14))
	inputs := make([][]uint64, 3)
	nOwned := make([]int, 3)
	for _, in := range circ.Inputs() {
		nOwned[in.Party]++
	}
	for p := range inputs {
		inputs[p] = make([]uint64, nOwned[p])
		for i := range inputs[p] {
			inputs[p][i] = rng.Uint64()
		}
	}
	net, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	wide, err := RunWide(net, circ, inputs, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 17, 63} {
		scalar := runInMem(t, 3, circ, laneInputs(inputs, k), 16+int64(k))
		for i := range scalar.Outputs {
			if got := wide.Outputs[i]>>uint(k)&1 == 1; got != scalar.Outputs[i] {
				t.Fatalf("lane %d output %d: wide=%v scalar=%v", k, i, got, scalar.Outputs[i])
			}
		}
	}
}

// Shares-kept mode: no output round, and the parties' share words XOR to
// the plaintext outputs.
func TestWideSharedReconstructs(t *testing.T) {
	circ := wideTestCircuit(t)
	rng := rand.New(rand.NewSource(18))
	inputs := make([][]uint64, 3)
	nOwned := make([]int, 3)
	for _, in := range circ.Inputs() {
		nOwned[in.Party]++
	}
	for p := range inputs {
		inputs[p] = make([]uint64, nOwned[p])
		for i := range inputs[p] {
			inputs[p][i] = rng.Uint64()
		}
	}
	triples, err := GenTriplesWideSharded(19, 3, circ.Stats().AndGates, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := RunWideShared(net, circ, 1, inputs, triples, 20)
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
		for i, w := range partyShares {
			opened[i] ^= w
		}
	}
	for k := 0; k < WideLanes; k++ {
		lane := laneInputs(inputs, k)
		var flat []bool
		for _, in := range circ.Inputs() {
			flat = append(flat, lane[in.Party][0])
			lane[in.Party] = lane[in.Party][1:]
		}
		want, err := circ.Evaluate(flat)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got := opened[i]>>uint(k)&1 == 1; got != w {
				t.Fatalf("lane %d output %d: reconstructed=%v plain=%v", k, i, got, w)
			}
		}
	}
}

func TestRunWideValidation(t *testing.T) {
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
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := RunWide(net, circ, [][]uint64{{1}}, 1); err == nil {
		t.Error("wrong party count accepted")
	}
	if _, err := RunWide(net, circ, [][]uint64{{1, 2}, {3}}, 1); err == nil {
		t.Error("wrong per-party word count accepted")
	}
	short := []WideTriples{{}, {}}
	if _, err := RunWideWithTriples(net, circ, 1, [][]uint64{{1}, {2}}, short, 1); err == nil {
		t.Error("short triples accepted")
	}
}

// fuzzCircuit builds a random 2–4 party circuit of 25 XOR/AND/NOT/OR gates
// over 2–4 input bits per party, with up to 5 outputs, drawing everything
// from rng. Degenerate draws skip the fuzz case.
func fuzzCircuit(t *testing.T, rng *rand.Rand) (int, *circuit.Circuit) {
	t.Helper()
	parties := 2 + rng.Intn(3)
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
		t.Skip("degenerate circuit with no outputs")
	}
	circ, err := b.Build()
	if err != nil {
		t.Skip("unbuildable circuit")
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
		inputs := make([][]uint64, parties)
		for _, in := range circ.Inputs() {
			inputs[in.Party] = append(inputs[in.Party], make([]uint64, words)...)
		}
		for p := range inputs {
			for i := range inputs[p] {
				inputs[p][i] = rng.Uint64()
			}
		}
		andWords := circ.Stats().AndGates * words
		triples, err := GenTriplesWideSharded(seed, parties, andWords, 2)
		if err != nil {
			t.Fatal(err)
		}
		run := func(net transport.Network, keepShared bool, triples []WideTriples) (*WideResult, error) {
			defer net.Close()
			if keepShared {
				return RunWideShared(net, circ, words, inputs, triples, seed)
			}
			return RunWideWithTriples(net, circ, words, inputs, triples, seed)
		}
		newNet := func() transport.Network {
			net, err := transport.NewInMem(parties)
			if err != nil {
				t.Fatal(err)
			}
			return net
		}
		opened, err := run(newNet(), false, triples)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := run(newNet(), true, triples)
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
			net := newNet()
			ref, err := RunWide(net, circ, one, seed+int64(l)+1)
			net.Close()
			if err != nil {
				t.Fatal(err)
			}
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

		if _, err := run(shortAndNet{newNet()}, false, triples); !errors.Is(err, ErrProtocol) {
			t.Fatalf("L=%d: message one word short gave %v, want ErrProtocol", words, err)
		}
		if andWords > 0 {
			short := append([]WideTriples(nil), triples...)
			short[parties-1].C = short[parties-1].C[:andWords-1]
			if _, err := run(newNet(), false, short); !errors.Is(err, ErrTripleShape) {
				t.Fatalf("L=%d: triple set one word short gave %v, want ErrTripleShape", words, err)
			}
		}
	})
}

// FuzzGMWWideEquivalence drives random circuits and random lane words —
// including ragged slabs where only the low `active` lanes carry data —
// through the wide evaluator and cross-checks every active lane against
// plaintext evaluation, plus one lane against the scalar protocol.
func FuzzGMWWideEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(64))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(37))
	f.Fuzz(func(t *testing.T, seed int64, active uint8) {
		lanes := int(active%64) + 1 // 1..64 active lanes (ragged slab model)
		rng := rand.New(rand.NewSource(seed))
		parties, circ := fuzzCircuit(t, rng)
		mask := ^uint64(0) >> uint(64-lanes)
		inputs := make([][]uint64, parties)
		nOwned := make([]int, parties)
		for _, in := range circ.Inputs() {
			nOwned[in.Party]++
		}
		for p := range inputs {
			inputs[p] = make([]uint64, nOwned[p])
			for i := range inputs[p] {
				inputs[p][i] = rng.Uint64() & mask // padded lanes carry zeros
			}
		}
		net, err := transport.NewInMem(parties)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		wide, err := RunWide(net, circ, inputs, seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < lanes; k++ {
			lane := laneInputs(inputs, k)
			cursor := make([]int, parties)
			var flat []bool
			for _, in := range circ.Inputs() {
				flat = append(flat, lane[in.Party][cursor[in.Party]])
				cursor[in.Party]++
			}
			want, err := circ.Evaluate(flat)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if got := wide.Outputs[i]>>uint(k)&1 == 1; got != w {
					t.Fatalf("lane %d/%d output %d: wide=%v plain=%v", k, lanes, i, got, w)
				}
			}
		}
		// Scalar protocol cross-check on one active lane.
		k := rng.Intn(lanes)
		snet, err := transport.NewInMem(parties)
		if err != nil {
			t.Fatal(err)
		}
		defer snet.Close()
		scalar, err := Run(snet, circ, laneInputs(inputs, k), seed+1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range scalar.Outputs {
			if got := wide.Outputs[i]>>uint(k)&1 == 1; got != scalar.Outputs[i] {
				t.Fatalf("lane %d output %d: wide=%v scalar=%v", k, i, got, scalar.Outputs[i])
			}
		}
	})
}

// Fault injection on the wide path: crash, total loss, corruption. The
// run must fail loudly (or detect the corruption), never hang or return
// silently wrong openings.
func TestWideFaultInjection(t *testing.T) {
	circ := andCircuit(t)
	inputs := [][]uint64{{^uint64(0)}, {^uint64(0)}, {^uint64(0)}}

	t.Run("crashed party", func(t *testing.T) {
		inner, err := transport.NewInMem(3)
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewFaulty(inner, transport.FaultPlan{FailSendFrom: map[int]bool{1: true}})
		defer net.Close()
		done := make(chan error, 1)
		go func() {
			_, e := RunWide(net, circ, inputs, 1)
			done <- e
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("wide MPC succeeded despite crashed party")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("wide MPC hung with crashed party")
		}
	})

	t.Run("all messages dropped", func(t *testing.T) {
		inner, err := transport.NewInMem(3)
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewFaulty(inner, transport.FaultPlan{DropRate: 1, Seed: 2})
		done := make(chan error, 1)
		go func() {
			_, e := RunWide(net, circ, inputs, 3)
			done <- e
		}()
		time.Sleep(50 * time.Millisecond)
		net.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("wide MPC succeeded with every message dropped")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("wide MPC hung after network close")
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
			_, err = RunWide(net, circ, inputs, int64(i))
			net.Close()
			if err != nil {
				detected++
			}
		}
		if detected == 0 {
			t.Fatal("no corrupted wide run was detected across output reconstruction")
		}
	})
}

// The wide path must run identically over TCP.
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
	inputs := [][]uint64{make([]uint64, width), make([]uint64, width)}
	for p := range inputs {
		for i := range inputs[p] {
			inputs[p][i] = rng.Uint64()
		}
	}
	res, err := RunWide(net, circ, inputs, 24)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < WideLanes; k++ {
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

// BenchmarkWideAdd32 is BenchmarkSecureAdd32's wide twin: the same 32-bit
// adder, but 64 instances per execution. Comparing ns/op across the two
// (÷64 for the wide per-instance cost) shows the SIMD win directly.
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
	inputs := [][]uint64{make([]uint64, width), make([]uint64, width)}
	for p := range inputs {
		for i := range inputs[p] {
			inputs[p][i] = rng.Uint64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := transport.NewInMem(2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunWide(net, circ, inputs, int64(i)); err != nil {
			b.Fatal(err)
		}
		net.Close()
	}
}

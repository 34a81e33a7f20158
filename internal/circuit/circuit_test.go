package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, b *Builder) *Circuit {
	t.Helper()
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func evalOne(t *testing.T, c *Circuit, inputs []bool) []bool {
	t.Helper()
	out, err := c.Evaluate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBasicGates(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	y := b.Input(0)
	for _, w := range []Wire{b.XOR(x, y), b.AND(x, y), b.NOT(x), b.OR(x, y), b.MUX(x, y, b.NOT(y))} {
		if err := b.Output(w); err != nil {
			t.Fatal(err)
		}
	}
	c := mustBuild(t, b)
	for _, tc := range []struct {
		x, y bool
		want [5]bool // xor, and, not, or, mux(x ? y : !y)
	}{
		{false, false, [5]bool{false, false, true, false, true}},
		{false, true, [5]bool{true, false, true, true, false}},
		{true, false, [5]bool{true, false, false, true, false}},
		{true, true, [5]bool{false, true, false, true, true}},
	} {
		got := evalOne(t, c, []bool{tc.x, tc.y})
		for i, want := range tc.want {
			if got[i] != want {
				t.Errorf("x=%v y=%v output %d = %v, want %v", tc.x, tc.y, i, got[i], want)
			}
		}
	}
}

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	// Every expression below must fold without emitting gates.
	cases := []struct {
		got  Wire
		want Wire
	}{
		{b.XOR(Zero, Zero), Zero},
		{b.XOR(One, One), Zero},
		{b.XOR(One, Zero), One},
		{b.XOR(x, Zero), x},
		{b.XOR(Zero, x), x},
		{b.XOR(x, x), Zero},
		{b.AND(x, Zero), Zero},
		{b.AND(Zero, x), Zero},
		{b.AND(x, One), x},
		{b.AND(One, x), x},
		{b.AND(One, One), One},
		{b.AND(x, x), x},
		{b.NOT(Zero), One},
		{b.NOT(One), Zero},
		{b.OR(x, Zero), x},
		{b.OR(Zero, Zero), Zero},
		{b.OR(One, x), One},
		{b.MUX(Zero, x, Zero), Zero},
		{b.MUX(One, x, Zero), x},
	}
	for i, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("case %d: got wire %d, want %d", i, tc.got, tc.want)
		}
	}
	if len(b.gates) != 0 {
		t.Fatalf("constant folding emitted %d gates", len(b.gates))
	}
	// XOR(x, One) and NOT(x) each emit exactly one NOT gate.
	if w := b.XOR(x, One); w.IsConst() {
		t.Error("XOR(x, One) folded to constant")
	}
	if len(b.gates) != 1 || b.gates[0].Op != OpNOT {
		t.Fatalf("XOR(x,1) gates = %v", b.gates)
	}
}

func TestOutputRejectsConstant(t *testing.T) {
	b := NewBuilder()
	if err := b.Output(One); err == nil {
		t.Fatal("constant output accepted")
	}
}

func TestBuildNoOutputs(t *testing.T) {
	b := NewBuilder()
	b.Input(0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with no outputs accepted")
	}
}

func TestEvaluateInputMismatch(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	if err := b.Output(b.NOT(x)); err != nil {
		t.Fatal(err)
	}
	c := mustBuild(t, b)
	if _, err := c.Evaluate(nil); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if _, err := c.Evaluate([]bool{true, false}); err == nil {
		t.Fatal("extra inputs accepted")
	}
}

func TestAdder(t *testing.T) {
	const width = 6
	b := NewBuilder()
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
	c := mustBuild(t, b)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := rng.Uint64() % (1 << width)
		bb := rng.Uint64() % (1 << width)
		in := append(PackBits(a, width), PackBits(bb, width)...)
		got := UnpackBits(evalOne(t, c, in))
		want := (a + bb) % (1 << width)
		if got != want {
			t.Fatalf("%d + %d = %d, want %d", a, bb, got, want)
		}
	}
}

func TestAdderWidthMismatch(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Add(b.InputVec(0, 3), b.InputVec(0, 4)); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := b.LessThan(b.InputVec(0, 2), b.InputVec(0, 3)); err == nil {
		t.Fatal("comparator width mismatch accepted")
	}
	if _, err := b.Equal(b.InputVec(0, 2), b.InputVec(0, 3)); err == nil {
		t.Fatal("equality width mismatch accepted")
	}
	if _, err := b.SumMod(nil); err == nil {
		t.Fatal("empty SumMod accepted")
	}
	if _, err := b.PopCount(nil); err == nil {
		t.Fatal("empty PopCount accepted")
	}
}

func TestComparators(t *testing.T) {
	const width = 5
	b := NewBuilder()
	x := b.InputVec(0, width)
	y := b.InputVec(1, width)
	lt, err := b.LessThan(x, y)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := b.GreaterEq(x, y)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := b.Equal(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []Wire{lt, ge, eq} {
		if err := b.Output(w); err != nil {
			t.Fatal(err)
		}
	}
	c := mustBuild(t, b)
	for a := uint64(0); a < 32; a += 3 {
		for bb := uint64(0); bb < 32; bb += 2 {
			in := append(PackBits(a, width), PackBits(bb, width)...)
			got := evalOne(t, c, in)
			if got[0] != (a < bb) || got[1] != (a >= bb) || got[2] != (a == bb) {
				t.Fatalf("compare(%d,%d) = %v", a, bb, got)
			}
		}
	}
}

func TestComparatorAgainstConstantFolds(t *testing.T) {
	const width = 8
	b := NewBuilder()
	x := b.InputVec(0, width)
	ge, err := b.GreaterEq(x, ConstVec(100, width))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Output(ge); err != nil {
		t.Fatal(err)
	}
	c := mustBuild(t, b)
	stats := c.Stats()
	// Constant comparison must use fewer than one AND per bit after folding.
	if stats.AndGates >= width {
		t.Fatalf("AndGates = %d, expected folding below %d", stats.AndGates, width)
	}
	for _, v := range []uint64{0, 99, 100, 101, 255} {
		got := evalOne(t, c, PackBits(v, width))
		if got[0] != (v >= 100) {
			t.Fatalf("v=%d: got %v", v, got[0])
		}
	}
}

func TestPopCount(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 17} {
		b := NewBuilder()
		bits := b.InputVec(0, n)
		cnt, err := b.PopCount(bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range cnt {
			if err := b.Output(w); err != nil {
				t.Fatal(err)
			}
		}
		c := mustBuild(t, b)
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 50; trial++ {
			in := make([]bool, n)
			want := uint64(0)
			for i := range in {
				in[i] = rng.Intn(2) == 1
				if in[i] {
					want++
				}
			}
			if got := UnpackBits(evalOne(t, c, in)); got != want {
				t.Fatalf("n=%d popcount = %d, want %d", n, got, want)
			}
		}
	}
}

func TestSumModMatchesModularArithmetic(t *testing.T) {
	const width, k = 4, 3
	b := NewBuilder()
	vecs := make([][]Wire, k)
	for i := range vecs {
		vecs[i] = b.InputVec(i, width)
	}
	sum, err := b.SumMod(vecs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sum {
		if err := b.Output(w); err != nil {
			t.Fatal(err)
		}
	}
	c := mustBuild(t, b)
	prop := func(a, bb, cc uint8) bool {
		va, vb, vc := uint64(a%16), uint64(bb%16), uint64(cc%16)
		in := append(append(PackBits(va, width), PackBits(vb, width)...), PackBits(vc, width)...)
		out, err := c.Evaluate(in)
		if err != nil {
			return false
		}
		return UnpackBits(out) == (va+vb+vc)%16
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScheduleCoversAllGates(t *testing.T) {
	b := NewBuilder()
	x := b.InputVec(0, 8)
	y := b.InputVec(1, 8)
	s, err := b.Add(x, y)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := b.LessThan(s, ConstVec(77, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Output(lt); err != nil {
		t.Fatal(err)
	}
	c := mustBuild(t, b)
	seen := make(map[int]bool)
	for _, round := range c.AndRounds() {
		for _, gi := range round {
			if seen[gi] {
				t.Fatalf("gate %d scheduled twice", gi)
			}
			seen[gi] = true
			if c.Gates()[gi].Op != OpAND {
				t.Fatalf("non-AND gate %d in AND round", gi)
			}
		}
	}
	for _, round := range c.LocalByRound() {
		for _, gi := range round {
			if seen[gi] {
				t.Fatalf("gate %d scheduled twice", gi)
			}
			seen[gi] = true
			if c.Gates()[gi].Op == OpAND {
				t.Fatalf("AND gate %d in local round", gi)
			}
		}
	}
	if len(seen) != len(c.Gates()) {
		t.Fatalf("schedule covers %d of %d gates", len(seen), len(c.Gates()))
	}
	st := c.Stats()
	if st.AndDepth != len(c.AndRounds()) {
		t.Fatalf("AndDepth %d != rounds %d", st.AndDepth, len(c.AndRounds()))
	}
	if st.Gates != st.AndGates+st.FreeGates {
		t.Fatal("gate counts inconsistent")
	}
	if st.Size() != st.Gates {
		t.Fatal("Size() != Gates")
	}
}

func TestAndOrdinalsAreDense(t *testing.T) {
	b := NewBuilder()
	x := b.InputVec(0, 4)
	y := b.InputVec(1, 4)
	s, err := b.Add(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Output(s[3]); err != nil {
		t.Fatal(err)
	}
	c := mustBuild(t, b)
	ordinals := make(map[int]bool)
	for i, g := range c.Gates() {
		ord := c.AndOrdinal(i)
		if g.Op == OpAND {
			if ord < 0 || ordinals[ord] {
				t.Fatalf("bad ordinal %d for AND gate %d", ord, i)
			}
			ordinals[ord] = true
		} else if ord != -1 {
			t.Fatalf("non-AND gate %d has ordinal %d", i, ord)
		}
	}
	for i := 0; i < len(ordinals); i++ {
		if !ordinals[i] {
			t.Fatalf("ordinal %d missing", i)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpXOR.String() != "XOR" || OpAND.String() != "AND" || OpNOT.String() != "NOT" {
		t.Error("op names wrong")
	}
	if Op(9).String() != "op(9)" {
		t.Error("unknown op name wrong")
	}
}

func TestBitsHelpers(t *testing.T) {
	if BitsNeeded(0) != 1 || BitsNeeded(1) != 1 || BitsNeeded(2) != 2 || BitsNeeded(255) != 8 || BitsNeeded(256) != 9 {
		t.Fatal("BitsNeeded wrong")
	}
	for _, v := range []uint64{0, 1, 5, 100, 1023} {
		if got := UnpackBits(PackBits(v, 10)); got != v {
			t.Fatalf("pack/unpack %d -> %d", v, got)
		}
	}
}

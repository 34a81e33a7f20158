// Package circuit provides the boolean-circuit intermediate representation
// used by the secure CountBelow computation (Section IV-B2 of the ε-PPI
// paper). It stands in for FairplayMP's SFDL compiler: a builder API
// constructs circuits from XOR/AND/NOT gates with compile-time constant
// folding, word-level blocks (adders, comparators, counters) assemble the
// CountBelow function, and the resulting Circuit carries the size and
// AND-depth metrics that the paper's Figure 6b reports as "circuit size".
//
// XOR and NOT are free in the GMW protocol (local operations); AND gates
// cost one Beaver triple and one communication round per AND-depth level,
// so Stats separates the two.
package circuit

import (
	"errors"
	"fmt"
)

// Wire identifies a circuit wire. Negative sentinel values denote the
// boolean constants, which are folded away at build time and never appear
// in a built circuit.
type Wire int32

// Constant wires understood by the builder.
const (
	// Zero is the constant-false wire.
	Zero Wire = -1
	// One is the constant-true wire.
	One Wire = -2
)

// IsConst reports whether w is a build-time constant.
func (w Wire) IsConst() bool { return w == Zero || w == One }

func (w Wire) constVal() bool { return w == One }

// Op is a gate operation.
type Op uint8

// Gate operations.
const (
	// OpXOR is exclusive-or (free in GMW).
	OpXOR Op = iota + 1
	// OpAND is conjunction (one Beaver triple in GMW).
	OpAND
	// OpNOT is negation (free in GMW).
	OpNOT
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpXOR:
		return "XOR"
	case OpAND:
		return "AND"
	case OpNOT:
		return "NOT"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Gate is one circuit gate. B is unused for OpNOT.
type Gate struct {
	Op   Op
	A, B Wire
	Out  Wire
}

// Input describes one input wire and the party that owns (provides) it.
type Input struct {
	Wire  Wire
	Party int
}

// Circuit is an immutable built circuit.
type Circuit struct {
	numWires int
	inputs   []Input
	outputs  []Wire
	gates    []Gate

	// andRounds[r] lists indices into gates of the AND gates evaluated in
	// communication round r; localByRound[r] lists the indices of free
	// gates whose output depth is r (evaluated locally at the start of
	// round r). Precomputed by Build for the GMW scheduler.
	andRounds    [][]int
	localByRound [][]int
	andIndex     []int // per-gate running AND ordinal (triple index), -1 for non-AND
}

// NumWires returns the total number of wires (inputs + gate outputs).
func (c *Circuit) NumWires() int { return c.numWires }

// Inputs returns the input descriptors in creation order.
func (c *Circuit) Inputs() []Input {
	out := make([]Input, len(c.inputs))
	copy(out, c.inputs)
	return out
}

// Outputs returns the output wires in declaration order.
func (c *Circuit) Outputs() []Wire {
	out := make([]Wire, len(c.outputs))
	copy(out, c.outputs)
	return out
}

// Gates returns the gate list in topological order.
func (c *Circuit) Gates() []Gate {
	out := make([]Gate, len(c.gates))
	copy(out, c.gates)
	return out
}

// Stats summarises circuit complexity.
type Stats struct {
	// Wires is the total wire count.
	Wires int
	// Gates is the total gate count.
	Gates int
	// AndGates is the number of AND gates (the MPC cost driver).
	AndGates int
	// FreeGates is the number of XOR/NOT gates.
	FreeGates int
	// AndDepth is the number of sequential communication rounds needed.
	AndDepth int
	// Inputs and Outputs are the respective port counts.
	Inputs, Outputs int
}

// Size returns the paper's "circuit size" metric: the total gate count.
func (s Stats) Size() int { return s.Gates }

// Stats computes the complexity summary.
func (c *Circuit) Stats() Stats {
	and := 0
	for _, g := range c.gates {
		if g.Op == OpAND {
			and++
		}
	}
	return Stats{
		Wires:     c.numWires,
		Gates:     len(c.gates),
		AndGates:  and,
		FreeGates: len(c.gates) - and,
		AndDepth:  len(c.andRounds),
		Inputs:    len(c.inputs),
		Outputs:   len(c.outputs),
	}
}

// AndRounds exposes the AND-gate schedule (round → gate indices).
func (c *Circuit) AndRounds() [][]int { return c.andRounds }

// LocalByRound exposes the free-gate schedule (round → gate indices).
func (c *Circuit) LocalByRound() [][]int { return c.localByRound }

// AndOrdinal returns the Beaver-triple index of gate i (-1 if not AND).
func (c *Circuit) AndOrdinal(i int) int { return c.andIndex[i] }

// ErrNoOutputs reports a Build with no declared outputs.
var ErrNoOutputs = errors.New("circuit: no outputs declared")

// Evaluate runs the circuit in the clear. inputs must supply one bit per
// input wire in creation order. Used by tests and as the functional
// reference for the secure evaluator.
func (c *Circuit) Evaluate(inputs []bool) ([]bool, error) {
	if len(inputs) != len(c.inputs) {
		return nil, fmt.Errorf("circuit: %d input bits, want %d", len(inputs), len(c.inputs))
	}
	vals := make([]bool, c.numWires)
	for i, in := range c.inputs {
		vals[in.Wire] = inputs[i]
	}
	for _, g := range c.gates {
		a := vals[g.A]
		switch g.Op {
		case OpXOR:
			vals[g.Out] = a != vals[g.B]
		case OpAND:
			vals[g.Out] = a && vals[g.B]
		case OpNOT:
			vals[g.Out] = !a
		default:
			return nil, fmt.Errorf("circuit: unknown op %v", g.Op)
		}
	}
	out := make([]bool, len(c.outputs))
	for i, w := range c.outputs {
		out[i] = vals[w]
	}
	return out, nil
}

// Builder incrementally constructs a Circuit. Constant wires are folded at
// build time, so built circuits contain only live gates — mirroring the
// constant propagation an SFDL compiler performs.
type Builder struct {
	nextWire int32
	inputs   []Input
	outputs  []Wire
	gates    []Gate
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Input allocates a fresh input wire owned by party.
func (b *Builder) Input(party int) Wire {
	w := Wire(b.nextWire)
	b.nextWire++
	b.inputs = append(b.inputs, Input{Wire: w, Party: party})
	return w
}

// InputVec allocates a little-endian vector of n input wires owned by party.
func (b *Builder) InputVec(party, n int) []Wire {
	out := make([]Wire, n)
	for i := range out {
		out[i] = b.Input(party)
	}
	return out
}

func (b *Builder) emit(op Op, a, bw Wire) Wire {
	out := Wire(b.nextWire)
	b.nextWire++
	b.gates = append(b.gates, Gate{Op: op, A: a, B: bw, Out: out})
	return out
}

// XOR returns a ⊕ b, folding constants.
func (b *Builder) XOR(a, c Wire) Wire {
	switch {
	case a.IsConst() && c.IsConst():
		return constWire(a.constVal() != c.constVal())
	case a == Zero:
		return c
	case c == Zero:
		return a
	case a == One:
		return b.NOT(c)
	case c == One:
		return b.NOT(a)
	case a == c:
		return Zero
	}
	return b.emit(OpXOR, a, c)
}

// AND returns a ∧ b, folding constants.
func (b *Builder) AND(a, c Wire) Wire {
	switch {
	case a == Zero || c == Zero:
		return Zero
	case a == One:
		return c
	case c == One:
		return a
	case a == c:
		return a
	}
	return b.emit(OpAND, a, c)
}

// NOT returns ¬a, folding constants.
func (b *Builder) NOT(a Wire) Wire {
	if a.IsConst() {
		return constWire(!a.constVal())
	}
	return b.emit(OpNOT, a, Zero)
}

// OR returns a ∨ b via De Morgan (one AND), folding constants.
func (b *Builder) OR(a, c Wire) Wire {
	switch {
	case a == One || c == One:
		return One
	case a == Zero:
		return c
	case c == Zero:
		return a
	case a == c:
		return a
	}
	return b.NOT(b.AND(b.NOT(a), b.NOT(c)))
}

// MUX returns sel ? a : b (one AND after simplification:
// b ⊕ sel·(a⊕b)).
func (b *Builder) MUX(sel, a, c Wire) Wire {
	return b.XOR(c, b.AND(sel, b.XOR(a, c)))
}

// Materialize returns a live wire carrying the same value as w. Constants
// are lowered through explicit gates anchored on any live wire (XOR(a,a)
// is identically 0), so callers with fixed output layouts can emit values
// that happened to fold to constants. Live wires pass through unchanged.
func (b *Builder) Materialize(w, anchor Wire) Wire {
	if !w.IsConst() {
		return w
	}
	if anchor.IsConst() {
		// No live anchor exists only in constant-only circuits, which have
		// nothing to compute securely; treat as a programming error.
		panic("circuit: Materialize needs a live anchor wire")
	}
	zero := b.emit(OpXOR, anchor, anchor)
	if w == Zero {
		return zero
	}
	return b.emit(OpNOT, zero, Zero)
}

// Output declares w as a circuit output. Constant outputs are materialised
// through a gate so the built circuit stays constant-free: Zero as a ⊕ a
// needs a live wire, so Output rejects constants — callers should track
// statically-known outputs themselves (the CountBelow compiler never
// produces one).
func (b *Builder) Output(w Wire) error {
	if w.IsConst() {
		return fmt.Errorf("circuit: constant output %v (fold it at the call site)", w)
	}
	b.outputs = append(b.outputs, w)
	return nil
}

// Build finalises the circuit and precomputes the GMW evaluation schedule.
func (b *Builder) Build() (*Circuit, error) {
	if len(b.outputs) == 0 {
		return nil, ErrNoOutputs
	}
	c := &Circuit{
		numWires: int(b.nextWire),
		inputs:   b.inputs,
		outputs:  b.outputs,
		gates:    b.gates,
	}
	c.schedule()
	return c, nil
}

// schedule assigns every gate to a communication round based on AND-depth.
func (c *Circuit) schedule() {
	depth := make([]int, c.numWires) // AND-depth of each wire; inputs are 0
	maxRound := 0
	gateRound := make([]int, len(c.gates))
	c.andIndex = make([]int, len(c.gates))
	andCount := 0
	for i, g := range c.gates {
		d := depth[g.A]
		if g.Op != OpNOT && int(g.B) >= 0 {
			if bd := depth[g.B]; bd > d {
				d = bd
			}
		}
		gateRound[i] = d
		if g.Op == OpAND {
			c.andIndex[i] = andCount
			andCount++
			depth[g.Out] = d + 1
			if d+1 > maxRound {
				maxRound = d + 1
			}
		} else {
			c.andIndex[i] = -1
			depth[g.Out] = d
			if d > maxRound {
				maxRound = d
			}
		}
	}
	// rounds 0..maxRound-1 have AND batches; free gates at depth r are
	// evaluated at the start of round r (or in the final flush at round
	// maxRound).
	c.andRounds = make([][]int, 0, maxRound)
	c.localByRound = make([][]int, maxRound+1)
	andByRound := make([][]int, maxRound+1)
	for i, g := range c.gates {
		r := gateRound[i]
		if g.Op == OpAND {
			andByRound[r] = append(andByRound[r], i)
		} else {
			c.localByRound[r] = append(c.localByRound[r], i)
		}
	}
	for r := 0; r < maxRound; r++ {
		c.andRounds = append(c.andRounds, andByRound[r])
	}
}

func constWire(v bool) Wire {
	if v {
		return One
	}
	return Zero
}

package circuit

import "fmt"

// Word-level building blocks. All vectors are little-endian (index 0 is the
// least significant bit). Widths are fixed: arithmetic wraps modulo 2^width,
// which is exactly the share-group reduction the CountBelow pipeline needs.

// ConstVec returns the width-bit constant v as a vector of constant wires
// (folded into downstream gates at build time).
func ConstVec(v uint64, width int) []Wire {
	out := make([]Wire, width)
	for i := range out {
		if v>>uint(i)&1 == 1 {
			out[i] = One
		} else {
			out[i] = Zero
		}
	}
	return out
}

// Add returns a + b modulo 2^len(a) with a ripple-carry adder (one AND
// gate and one AND level per bit). Vectors must have equal width.
func (b *Builder) Add(x, y []Wire) ([]Wire, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("circuit: adder width mismatch %d vs %d", len(x), len(y))
	}
	out := make([]Wire, len(x))
	carry := Zero
	for i := range x {
		// Full adder: sum = x ⊕ y ⊕ cin; cout = (x⊕cin)(y⊕cin) ⊕ cin.
		xi, yi := x[i], y[i]
		axc := b.XOR(xi, carry)
		out[i] = b.XOR(axc, yi)
		if i < len(x)-1 { // final carry is dropped (mod 2^width)
			ayc := b.XOR(yi, carry)
			carry = b.XOR(b.AND(axc, ayc), carry)
		}
	}
	return out, nil
}

// SumMod returns the sum of all vectors modulo 2^width. Vectors must share
// one width; at least one vector is required.
func (b *Builder) SumMod(vecs [][]Wire) ([]Wire, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("circuit: SumMod of no vectors")
	}
	acc := vecs[0]
	for _, v := range vecs[1:] {
		var err error
		acc, err = b.Add(acc, v)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// LessThan returns the single wire (x < y) for unsigned little-endian
// vectors of equal width, via the borrow of x − y.
func (b *Builder) LessThan(x, y []Wire) (Wire, error) {
	if len(x) != len(y) {
		return Zero, fmt.Errorf("circuit: comparator width mismatch %d vs %d", len(x), len(y))
	}
	// borrow_{i+1} = (¬x_i ∧ y_i) ∨ (¬(x_i ⊕ y_i) ∧ borrow_i)
	//             = ((x_i ⊕ borrow_i) ∧ (y_i ⊕ borrow_i)) ⊕ borrow_i  — same
	// trick as the adder carry with x negated; we use the direct form.
	borrow := Zero
	for i := range x {
		xb := b.XOR(x[i], borrow)
		yb := b.XOR(y[i], borrow)
		borrow = b.XOR(b.AND(b.NOT(xb), yb), borrow)
	}
	return borrow, nil
}

// GreaterEq returns (x >= y) = ¬(x < y).
func (b *Builder) GreaterEq(x, y []Wire) (Wire, error) {
	lt, err := b.LessThan(x, y)
	if err != nil {
		return Zero, err
	}
	return b.NOT(lt), nil
}

// Equal returns the single wire (x == y).
func (b *Builder) Equal(x, y []Wire) (Wire, error) {
	if len(x) != len(y) {
		return Zero, fmt.Errorf("circuit: equality width mismatch %d vs %d", len(x), len(y))
	}
	acc := One
	for i := range x {
		acc = b.AND(acc, b.NOT(b.XOR(x[i], y[i])))
	}
	return acc, nil
}

// PopCount sums n single-bit wires into a counter of width
// ceil(log2(n+1)) (Sum over one-bit vectors).
func (b *Builder) PopCount(bits []Wire) ([]Wire, error) {
	vecs := make([][]Wire, len(bits))
	for i, bit := range bits {
		vecs[i] = []Wire{bit}
	}
	return b.Sum(vecs)
}

// Sum adds unsigned vectors of one width w exactly: each is zero-extended
// to BitsNeeded(len(vecs)·(2^w − 1)) bits, the width of the largest
// possible total, and a balanced tree of ripple adders sums them.
func (b *Builder) Sum(vecs [][]Wire) ([]Wire, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("circuit: Sum of no vectors")
	}
	w := len(vecs[0])
	if w < 1 || w > 32 {
		return nil, fmt.Errorf("circuit: Sum of %d-bit vectors", w)
	}
	width := BitsNeeded(uint64(len(vecs)) * (1<<uint(w) - 1))
	level := make([][]Wire, len(vecs))
	for i, v := range vecs {
		if len(v) != w {
			return nil, fmt.Errorf("circuit: Sum width mismatch %d vs %d", len(v), w)
		}
		level[i] = append(append(make([]Wire, 0, width), v...), ConstVec(0, width-w)...)
	}
	for len(level) > 1 {
		next := make([][]Wire, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			s, err := b.Add(level[i], level[i+1])
			if err != nil {
				return nil, err
			}
			next = append(next, s)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0], nil
}

// BitsNeeded returns the minimal width representing values 0..maxValue.
func BitsNeeded(maxValue uint64) int {
	w := 1
	for maxValue>>uint(w) != 0 {
		w++
	}
	return w
}

// PackBits converts a uint64 to width little-endian bools.
func PackBits(v uint64, width int) []bool {
	out := make([]bool, width)
	for i := range out {
		out[i] = v>>uint(i)&1 == 1
	}
	return out
}

// UnpackBits converts little-endian bools back to a uint64.
func UnpackBits(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

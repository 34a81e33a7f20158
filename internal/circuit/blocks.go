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

// Add returns a + b modulo 2^len(a), using the builder's adder style
// (ripple by default; SetStyle(StylePrefix) switches to log-depth
// Kogge–Stone). Vectors must have equal width.
func (b *Builder) Add(x, y []Wire) ([]Wire, error) {
	if b.style == StylePrefix {
		return b.addPrefix(x, y)
	}
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
// vectors of equal width, via the borrow of x − y (or the prefix carry
// network when the builder style is StylePrefix).
func (b *Builder) LessThan(x, y []Wire) (Wire, error) {
	if b.style == StylePrefix {
		return b.lessThanPrefix(x, y)
	}
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
// ceil(log2(n+1)) using a balanced adder tree.
func (b *Builder) PopCount(bits []Wire) ([]Wire, error) {
	if len(bits) == 0 {
		return nil, fmt.Errorf("circuit: PopCount of no bits")
	}
	width := 1
	for 1<<uint(width) < len(bits)+1 {
		width++
	}
	// Promote each bit to a width-bit vector, then tree-sum.
	vecs := make([][]Wire, len(bits))
	for i, bit := range bits {
		v := make([]Wire, width)
		v[0] = bit
		for k := 1; k < width; k++ {
			v[k] = Zero
		}
		vecs[i] = v
	}
	for len(vecs) > 1 {
		next := make([][]Wire, 0, (len(vecs)+1)/2)
		for i := 0; i+1 < len(vecs); i += 2 {
			s, err := b.Add(vecs[i], vecs[i+1])
			if err != nil {
				return nil, err
			}
			next = append(next, s)
		}
		if len(vecs)%2 == 1 {
			next = append(next, vecs[len(vecs)-1])
		}
		vecs = next
	}
	return vecs[0], nil
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

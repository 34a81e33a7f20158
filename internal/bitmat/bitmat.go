// Package bitmat provides compact boolean matrices for the ε-PPI membership
// data. The Matrix type is orientation-neutral: rows are bitsets of
// ⌈cols/64⌉ words and nothing in it knows what a row stands for. By
// convention the private matrix M and the published, noise-bearing matrix
// M' are providers × identities, matching M(i, j) in the paper — that is
// how construction produces them — while the serving index
// (internal/index) holds the transpose, identities × providers, because
// its one query reads a column of M'.
//
// Two families of operations coexist on purpose. Get, ColOnes and
// ColCount probe one column bit by bit: they are the reference the rest is
// tested against and the right tool for looking at a single column.
// Transposed, ColCounts, RowOnes, SelectRows and OrRow work a word or a
// 64×64 tile (Transpose64) at a time and are what every whole-matrix or
// hot path uses.
//
// The matrices are bitset-backed so that networks of 25,000 providers and
// millions of identities stay addressable in memory during experiments.
package bitmat

import (
	"fmt"
	"math/bits"
)

// Matrix is a dense boolean matrix with bitset rows.
type Matrix struct {
	rows, cols int
	words      int // words per row
	data       []uint64
}

// New returns a rows × cols zero matrix.
func New(rows, cols int) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("bitmat: negative dimensions %dx%d", rows, cols)
	}
	words := (cols + 63) / 64
	return &Matrix{
		rows:  rows,
		cols:  cols,
		words: words,
		data:  make([]uint64, rows*words),
	}, nil
}

// MustNew is New but panics on invalid dimensions; for tests and literals.
func MustNew(rows, cols int) *Matrix {
	m, err := New(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows (providers, for M and M').
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns (identities, for M and M').
func (m *Matrix) Cols() int { return m.cols }

// Get returns the bit at (row, col).
func (m *Matrix) Get(row, col int) bool {
	m.check(row, col)
	w, b := m.idx(row, col)
	return m.data[w]>>b&1 == 1
}

// Set writes the bit at (row, col).
func (m *Matrix) Set(row, col int, v bool) {
	m.check(row, col)
	w, b := m.idx(row, col)
	if v {
		m.data[w] |= 1 << b
	} else {
		m.data[w] &^= 1 << b
	}
}

// Row returns a copy of one row as a boolean slice.
func (m *Matrix) Row(row int) []bool {
	m.check(row, 0)
	out := make([]bool, m.cols)
	for c := 0; c < m.cols; c++ {
		w, b := m.idx(row, c)
		out[c] = m.data[w]>>b&1 == 1
	}
	return out
}

// RowWords returns row `row` as its ⌈Cols/64⌉ backing words, column c at
// bit c%64 of word c/64, with the padding bits of the last word clear. The
// slice aliases the matrix: callers read it and must not write it.
func (m *Matrix) RowWords(row int) []uint64 {
	m.checkRow(row)
	return m.data[row*m.words : (row+1)*m.words : (row+1)*m.words]
}

// SetRow overwrites one row from a boolean slice of length Cols.
func (m *Matrix) SetRow(row int, vals []bool) error {
	if len(vals) != m.cols {
		return fmt.Errorf("bitmat: row length %d != cols %d", len(vals), m.cols)
	}
	m.check(row, 0)
	for c, v := range vals {
		m.Set(row, c, v)
	}
	return nil
}

// ColCount returns the number of set bits in column col — for the membership
// matrix this is the identity's absolute frequency (σ_j · m).
func (m *Matrix) ColCount(col int) int {
	m.check(0, col)
	count := 0
	for r := 0; r < m.rows; r++ {
		w, b := m.idx(r, col)
		count += int(m.data[w] >> b & 1)
	}
	return count
}

// RowCount returns the number of set bits in row `row` — the number of
// identities a provider claims (truthfully or falsely) to hold.
func (m *Matrix) RowCount(row int) int {
	m.check(row, 0)
	count := 0
	start := row * m.words
	for _, w := range m.data[start : start+m.words] {
		count += bits.OnesCount64(w)
	}
	return count
}

// ColOnes returns the row indices with a set bit in column col — for the
// published matrix this is exactly the QueryPPI result list.
func (m *Matrix) ColOnes(col int) []int {
	m.check(0, col)
	var out []int
	for r := 0; r < m.rows; r++ {
		w, b := m.idx(r, col)
		if m.data[w]>>b&1 == 1 {
			out = append(out, r)
		}
	}
	return out
}

// RowOnes returns the column indices with a set bit in row `row`, in
// ascending order — Transposed().RowOnes(j) is ColOnes(j) read from
// contiguous words. One popcount pass sizes the result exactly and one
// trailing-zeros pass fills it: a single allocation, none for an empty row
// (which returns nil, like ColOnes).
func (m *Matrix) RowOnes(row int) []int {
	m.checkRow(row)
	words := m.data[row*m.words : (row+1)*m.words]
	count := 0
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	if count == 0 {
		return nil
	}
	out := make([]int, 0, count)
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			out = append(out, i*64+bits.TrailingZeros64(w))
		}
	}
	return out
}

// SelectRows returns a new len(rows) × Cols matrix whose row k is a copy
// of row rows[k] — the shard partitioner's gather over an owner-major
// index.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	out := MustNew(len(rows), m.cols)
	for k, row := range rows {
		m.checkRow(row)
		copy(out.data[k*m.words:(k+1)*m.words], m.data[row*m.words:(row+1)*m.words])
	}
	return out
}

// OrRow ORs words — one row's worth, ⌈Cols/64⌉ of them, column c at bit
// c%64 of word c/64 — into row `row`. Bits past Cols in the last word are
// dropped, so padding stays clear whatever the caller passes. It is the
// word-level write of randomized publication: a provider's noise bits land
// on its cloned truth row in one pass, without a Set per cell.
func (m *Matrix) OrRow(row int, words []uint64) {
	m.checkRow(row)
	if len(words) != m.words {
		panic(fmt.Sprintf("bitmat: OrRow got %d words for a %d-word row", len(words), m.words))
	}
	dst := m.data[row*m.words : (row+1)*m.words]
	for i, w := range words {
		dst[i] |= w
	}
	if tail := uint(m.cols % 64); tail != 0 {
		dst[m.words-1] &= 1<<tail - 1
	}
}

// Count returns the total number of set bits.
func (m *Matrix) Count() int {
	count := 0
	for _, w := range m.data {
		count += bits.OnesCount64(w)
	}
	return count
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, words: m.words}
	out.data = make([]uint64, len(m.data))
	copy(out.data, m.data)
	return out
}

// Covers reports whether every set bit of other is also set in m. The
// published matrix M' must cover the private matrix M (truthful 1→1 rule),
// which guarantees 100% recall.
func (m *Matrix) Covers(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, w := range other.data {
		if w&^m.data[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports bitwise equality.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, w := range m.data {
		if w != other.data[i] {
			return false
		}
	}
	return true
}

// ColFalsePositiveRate returns, for column col, the fraction of published
// positives that are false given the private truth matrix: fp_j of the
// paper. It returns 0 when the published column has no positives.
func ColFalsePositiveRate(truth, published *Matrix, col int) (float64, error) {
	if truth.rows != published.rows || truth.cols != published.cols {
		return 0, fmt.Errorf("bitmat: dimension mismatch %dx%d vs %dx%d",
			truth.rows, truth.cols, published.rows, published.cols)
	}
	pub := 0
	falsePos := 0
	for r := 0; r < truth.rows; r++ {
		if published.Get(r, col) {
			pub++
			if !truth.Get(r, col) {
				falsePos++
			}
		}
	}
	if pub == 0 {
		return 0, nil
	}
	return float64(falsePos) / float64(pub), nil
}

func (m *Matrix) idx(row, col int) (word int, bit uint) {
	return row*m.words + col/64, uint(col % 64)
}

// checkRow is check for whole-row operations, which are well defined on
// a matrix with no columns.
func (m *Matrix) checkRow(row int) {
	if row < 0 || row >= m.rows {
		panic(fmt.Sprintf("bitmat: row %d out of %dx%d", row, m.rows, m.cols))
	}
}

func (m *Matrix) check(row, col int) {
	if row < 0 || row >= m.rows || col < 0 || col >= m.cols {
		panic(fmt.Sprintf("bitmat: index (%d,%d) out of %dx%d", row, col, m.rows, m.cols))
	}
}

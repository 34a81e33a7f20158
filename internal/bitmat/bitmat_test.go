package bitmat

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 5); err == nil {
		t.Error("negative rows accepted")
	}
	if _, err := New(5, -1); err == nil {
		t.Error("negative cols accepted")
	}
	m, err := New(0, 0)
	if err != nil || m.Rows() != 0 || m.Cols() != 0 {
		t.Errorf("empty matrix: %v %v", m, err)
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	m := MustNew(3, 130) // spans multiple words per row
	coords := [][2]int{{0, 0}, {0, 63}, {0, 64}, {1, 129}, {2, 65}, {2, 127}}
	for _, c := range coords {
		m.Set(c[0], c[1], true)
	}
	for _, c := range coords {
		if !m.Get(c[0], c[1]) {
			t.Errorf("bit (%d,%d) not set", c[0], c[1])
		}
	}
	if m.Count() != len(coords) {
		t.Errorf("Count = %d, want %d", m.Count(), len(coords))
	}
	m.Set(0, 64, false)
	if m.Get(0, 64) {
		t.Error("clear failed")
	}
	if !m.Get(0, 63) || m.Get(0, 65) {
		t.Error("clear disturbed neighbours")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := MustNew(2, 2)
	for _, fn := range []func(){
		func() { m.Get(2, 0) },
		func() { m.Get(0, 2) },
		func() { m.Get(-1, 0) },
		func() { m.Set(0, -1, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestRowOps(t *testing.T) {
	m := MustNew(2, 5)
	if err := m.SetRow(0, []bool{true, false, true, false, true}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRow(0, []bool{true}); err == nil {
		t.Fatal("short row accepted")
	}
	row := m.Row(0)
	want := []bool{true, false, true, false, true}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("Row[%d] = %v, want %v", i, row[i], want[i])
		}
	}
	if m.RowCount(0) != 3 {
		t.Errorf("RowCount = %d, want 3", m.RowCount(0))
	}
	if m.RowCount(1) != 0 {
		t.Errorf("RowCount empty = %d", m.RowCount(1))
	}
}

// OrRow sets exactly the real columns named by its words, leaves the other
// rows alone, keeps padding clear even when handed set padding bits, and
// refuses a slice that is not one row long.
func TestOrRow(t *testing.T) {
	m := MustNew(3, 70) // two words, six real bits in the second
	m.Set(1, 3, true)
	m.Set(2, 69, true)
	m.OrRow(1, []uint64{1<<0 | 1<<63, ^uint64(0)})
	want := []int{0, 3, 63, 64, 65, 66, 67, 68, 69}
	if got := m.RowOnes(1); !slices.Equal(got, want) {
		t.Fatalf("RowOnes(1) = %v, want %v", got, want)
	}
	if m.RowCount(0) != 0 || m.RowCount(2) != 1 {
		t.Error("OrRow disturbed another row")
	}
	if m.Count() != len(want)+1 {
		t.Errorf("Count = %d, want %d: padding bits leaked", m.Count(), len(want)+1)
	}
	raw, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(Matrix).UnmarshalBinary(raw); err != nil {
		t.Errorf("matrix written by OrRow does not decode: %v", err)
	}
	for _, fn := range []func(){
		func() { m.OrRow(1, make([]uint64, 1)) },
		func() { m.OrRow(1, make([]uint64, 3)) },
		func() { m.OrRow(3, make([]uint64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on a wrong-length or out-of-range OrRow")
				}
			}()
			fn()
		}()
	}
	empty := MustNew(2, 0)
	empty.OrRow(1, nil) // a row of no columns takes no words
}

func TestColOps(t *testing.T) {
	m := MustNew(5, 3)
	m.Set(1, 2, true)
	m.Set(3, 2, true)
	m.Set(4, 0, true)
	if got := m.ColCount(2); got != 2 {
		t.Errorf("ColCount(2) = %d, want 2", got)
	}
	ones := m.ColOnes(2)
	if len(ones) != 2 || ones[0] != 1 || ones[1] != 3 {
		t.Errorf("ColOnes(2) = %v, want [1 3]", ones)
	}
	if got := m.ColOnes(1); got != nil {
		t.Errorf("ColOnes(1) = %v, want nil", got)
	}
}

func TestCloneEqual(t *testing.T) {
	m := MustNew(4, 100)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		m.Set(rng.Intn(4), rng.Intn(100), true)
	}
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(0, 0, !c.Get(0, 0))
	if m.Equal(c) {
		t.Fatal("mutating clone affected original equality")
	}
	other := MustNew(4, 99)
	if m.Equal(other) {
		t.Fatal("different dims reported equal")
	}
}

func TestCovers(t *testing.T) {
	truth := MustNew(3, 3)
	truth.Set(0, 0, true)
	truth.Set(2, 1, true)
	pub := truth.Clone()
	pub.Set(1, 1, true) // extra false positive is fine
	if !pub.Covers(truth) {
		t.Fatal("published should cover truth")
	}
	if truth.Covers(pub) {
		t.Fatal("truth should not cover published with extra bits")
	}
	pub2 := MustNew(3, 3)
	if pub2.Covers(truth) {
		t.Fatal("empty matrix covers nonempty truth")
	}
	if truth.Covers(MustNew(2, 3)) {
		t.Fatal("dimension mismatch covered")
	}
}

func TestColFalsePositiveRate(t *testing.T) {
	truth := MustNew(4, 1)
	truth.Set(0, 0, true)
	pub := truth.Clone()
	pub.Set(1, 0, true)
	pub.Set(2, 0, true)
	fp, err := ColFalsePositiveRate(truth, pub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 2.0/3.0 {
		t.Fatalf("fp = %v, want 2/3", fp)
	}
	empty := MustNew(4, 1)
	fp, err = ColFalsePositiveRate(truth, empty, 0)
	if err != nil || fp != 0 {
		t.Fatalf("empty published: fp=%v err=%v", fp, err)
	}
	if _, err := ColFalsePositiveRate(truth, MustNew(3, 1), 0); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// Property: a random set of writes is faithfully read back and column/row
// counts agree with a reference map implementation.
func TestMatrixQuickAgainstMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := rng.Intn(20)+1, rng.Intn(200)+1
		m := MustNew(rows, cols)
		ref := make(map[[2]int]bool)
		for i := 0; i < 300; i++ {
			r, c, v := rng.Intn(rows), rng.Intn(cols), rng.Intn(2) == 0
			m.Set(r, c, v)
			ref[[2]int{r, c}] = v
		}
		for k, v := range ref {
			if m.Get(k[0], k[1]) != v {
				return false
			}
		}
		total := 0
		for c := 0; c < cols; c++ {
			total += m.ColCount(c)
		}
		return total == m.Count()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkColCount(b *testing.B) {
	m := MustNew(10000, 64)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		m.Set(rng.Intn(10000), rng.Intn(64), true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ColCount(i % 64)
	}
}

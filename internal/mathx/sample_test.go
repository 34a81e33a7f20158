package mathx

import (
	"math"
	"testing"
)

func TestZipf(t *testing.T) {
	w := Zipf(100, 1.0)
	if len(w) != 100 {
		t.Fatalf("len = %d", len(w))
	}
	var total float64
	for i, x := range w {
		if x <= 0 {
			t.Fatalf("weight %d = %v", i, x)
		}
		if i > 0 && x > w[i-1]+1e-15 {
			t.Fatalf("weights not non-increasing at %d", i)
		}
		total += x
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("sum = %v, want 1", total)
	}
	if Zipf(0, 1) != nil {
		t.Fatal("Zipf(0) should be nil")
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev single != 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample std dev of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
}

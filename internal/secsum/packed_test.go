package secsum

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/field"
	"repro/internal/transport"
)

// fuzzFields covers both expansion paths and every packing geometry class:
// w dividing 64 (no per-word padding), w not dividing it, one element per
// word, and prime fields with out-of-range values inside w bits.
var fuzzFields = []field.Field{
	mustAdditive(2), mustAdditive(1 << 11), mustAdditive(1 << 16), mustAdditive(1 << 40),
	field.MustNew(5), field.MustNew(101), field.MustNew(10007), field.MustNew(104729), field.Default(),
}

func mustAdditive(q uint64) field.Field {
	f, err := field.NewAdditive(q)
	if err != nil {
		panic(err)
	}
	return f
}

// FuzzSuperShareDecode feeds hostile packed payloads to the coordinator's
// decoder: it must never panic, must reject with ErrMalformedShare or decode
// every element into Z_q, and whatever it accepts must re-encode to the
// exact payload.
func FuzzSuperShareDecode(f *testing.F) {
	f.Add(uint8(1), uint16(5), []byte{1, 2, 3, 4, 5, 6, 7, 0})
	f.Add(uint8(6), uint16(4), make([]byte, 8))
	f.Add(uint8(0), uint16(64), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(8), uint16(2), make([]byte, 16))
	f.Fuzz(func(t *testing.T, sel uint8, n uint16, payload []byte) {
		fld := fuzzFields[int(sel)%len(fuzzFields)]
		words := make([]uint64, len(payload)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
		r, err := newRing(fld)
		if err != nil {
			t.Fatal(err)
		}
		size := int(n)
		if n%2 == 0 && len(words) > 0 {
			// Half the inputs get an identity count the word count fits, so
			// the element and padding checks see traffic, not just the length.
			size = (len(words)-1)*r.per + 1 + int(n/2)%r.per
		}
		elems, err := DecodeSuperShare(fld, words, size)
		if err != nil {
			if !errors.Is(err, ErrMalformedShare) {
				t.Fatalf("rejection %v is not ErrMalformedShare", err)
			}
			return
		}
		if len(elems) != size {
			t.Fatalf("decoded %d elements, want %d", len(elems), size)
		}
		for j, v := range elems {
			if v >= fld.Modulus() {
				t.Fatalf("element %d = %d escapes Z_%d", j, v, fld.Modulus())
			}
		}
		again := make([]uint64, len(words))
		r.pack(again, elems)
		for i := range words {
			if again[i] != words[i] {
				t.Fatalf("word %d re-encodes as %#x, payload %#x", i, again[i], words[i])
			}
		}
	})
}

// The expansion is a function of the key alone: chunk boundaries never
// shift an element, in either the masked or the rejection-sampled path.
func TestExpansionChunkingInvariant(t *testing.T) {
	key := newShareKey(3, 1, 2)
	for _, fld := range fuzzFields {
		r, err := newRing(fld)
		if err != nil {
			t.Fatal(err)
		}
		const n = 3000
		whole, err := ExpandShare(fld, key[:], n)
		if err != nil {
			t.Fatal(err)
		}
		e := r.expander(key)
		ks := make([]byte, 8*n)
		got := make([]uint64, 0, n)
		for step := 1; len(got) < n; step = step*3 + 1 {
			part := make([]uint64, min(step, n-len(got)))
			e.next(part, ks)
			got = append(got, part...)
		}
		for j := range whole {
			if whole[j] != got[j] || whole[j] >= fld.Modulus() {
				t.Fatalf("q=%d: element %d is %d whole, %d chunked", fld.Modulus(), j, whole[j], got[j])
			}
		}
	}
}

// secsumHot is the secure-hot workload's SecSumShare: 512 providers × 32 768
// identities, c = 3, in Z_{2^11} (bits(m+1) + 1 sign bit, as the wide path
// uses), as bit rows at density 1/8.
func secsumHot() (n int, rows [][]uint64) {
	const m = 512
	n = 32768
	rng := rand.New(rand.NewSource(11))
	rows = make([][]uint64, m)
	for i := range rows {
		rows[i] = make([]uint64, n/64)
		for w := range rows[i] {
			rows[i][w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
	}
	return n, rows
}

// TestSecSumAllocBound pins the memory the protocol moves and holds at the
// secure-hot shape: one run allocates at most 64 MB in total, of which the
// packed wire payload — 512 super-shares of ⌈32 768/5⌉ words — is 26.9 MB.
// The per-cell-split protocol it replaced allocated over 1 GB here.
func TestSecSumAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("512 × 32 768 run")
	}
	s := additive(t, 1<<11, 3)
	n, rows := secsumHot()
	net, err := transport.NewInMem(len(rows))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunBits(net, s, n, func(i int) []uint64 { return rows[i] }, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 64e6
	got := after.TotalAlloc - before.TotalAlloc
	if got > bound {
		t.Fatalf("one run allocated %.1f MB, bound %.0f MB", float64(got)/1e6, bound/1e6)
	}
	t.Logf("allocated %.1f MB, wire %.1f MB", float64(got)/1e6, float64(res.Stats.Bytes)/1e6)
}

// BenchmarkSecSum times one SecSumShare run at the secure-hot shape and
// reports the wire bytes and the nanoseconds per provider cell.
func BenchmarkSecSum(b *testing.B) {
	s := additive(b, 1<<11, 3)
	n, rows := secsumHot()
	b.ReportAllocs()
	b.ResetTimer()
	var wire uint64
	for i := 0; i < b.N; i++ {
		net, err := transport.NewInMem(len(rows))
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunBits(net, s, n, func(i int) []uint64 { return rows[i] }, int64(i))
		net.Close()
		if err != nil {
			b.Fatal(err)
		}
		wire = res.Stats.Bytes
	}
	b.ReportMetric(float64(wire), "wire_B")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)*n), "ns/cell")
}

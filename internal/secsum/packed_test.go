package secsum

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/field"
	"repro/internal/prf"
	"repro/internal/transport"
)

// fuzzFields covers every packing geometry class: w = 1, w dividing 64 (no
// per-word padding), w not dividing it, and one element per word.
var fuzzFields = []field.Field{
	mustAdditive(2), mustAdditive(1 << 11), mustAdditive(1 << 16), mustAdditive(1 << 40),
	mustAdditive(8), mustAdditive(128), mustAdditive(1 << 14), mustAdditive(1 << 17), mustAdditive(1 << 61),
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

// FuzzSuperShareKernel checks the provider pass against a per-element
// reference — input − Σ ExpandShare(own) + Σ ExpandShare(received) mod q,
// then pack — for inputs loaded as RunBits rows (bits set past n must reach
// no element) and as Run vectors (values past q reduced), at identity counts
// on every word and chunk boundary. The packed fold of the result into a
// random accumulator must equal DecodeSuperShare plus elementwise add.
func FuzzSuperShareKernel(f *testing.F) {
	for sel := range fuzzFields {
		for nsel := 0; nsel < 12; nsel++ {
			f.Add(uint8(sel), uint8(nsel), uint8(2+nsel%3), nsel%2 == 0, int64(sel*12+nsel))
		}
	}
	f.Fuzz(func(t *testing.T, sel, nsel, cSel uint8, useBits bool, seed int64) {
		fld := fuzzFields[int(sel)%len(fuzzFields)]
		r, err := newRing(fld)
		if err != nil {
			t.Fatal(err)
		}
		sizes := []int{0, 1, r.per - 1, r.per, r.per + 1, 63, 64, 65,
			r.chunk - 1, r.chunk, r.chunk + 1, 2*r.chunk + r.per + 3}
		n := sizes[int(nsel)%len(sizes)]
		c := 2 + int(cSel)%3
		rng := rand.New(rand.NewSource(seed))
		q := fld.Modulus()

		own, in := make([]shareKey, c-1), make([]shareKey, c-1)
		for k := range own {
			own[k] = shareKey{rng.Uint64(), rng.Uint64()}
			in[k] = shareKey{rng.Uint64(), rng.Uint64()}
		}
		want := make([]uint64, n)
		var load loader
		if useBits {
			row := make([]uint64, (n+63)/64)
			for i := range row {
				row[i] = rng.Uint64() // the last word's bits past n included
			}
			for j := range want {
				want[j] = row[j/64] >> (j % 64) & 1
			}
			load = r.bitLoader(row)
		} else {
			vals := make([]uint64, n)
			for j := range vals {
				vals[j] = rng.Uint64()
				want[j] = vals[j] % q
			}
			load = r.valueLoader(vals)
		}
		for k := range own {
			subs, err := ExpandShare(fld, own[k][:], n)
			if err != nil {
				t.Fatal(err)
			}
			adds, err := ExpandShare(fld, in[k][:], n)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				want[j] = fld.Add(fld.Sub(want[j], subs[j]), adds[j])
			}
		}
		ref := make([]uint64, r.packedLen(n))
		r.pack(ref, want)

		got := r.superShare(n, load, own, in)
		defer transport.PutWords(got)
		if len(got) != len(ref) {
			t.Fatalf("q=%d n=%d: %d words, want %d", q, n, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("q=%d n=%d c=%d: word %d is %#x, reference %#x", q, n, c, i, got[i], ref[i])
			}
		}

		base := make([]uint64, n)
		for j := range base {
			base[j] = rng.Uint64() % q
		}
		acc := make([]uint64, r.packedLen(n))
		r.pack(acc, base)
		if err := r.fold(acc, got, n); err != nil {
			t.Fatalf("q=%d n=%d: fold rejected the pass's own output: %v", q, n, err)
		}
		dec, err := DecodeSuperShare(fld, got, n)
		if err != nil {
			t.Fatal(err)
		}
		sum := make([]uint64, n)
		r.unpack(sum, acc)
		for j := range sum {
			if w := fld.Add(base[j], dec[j]); sum[j] != w {
				t.Fatalf("q=%d n=%d: folded element %d is %d, want %d", q, n, j, sum[j], w)
			}
		}
	})
}

// The expansion is a function of the key alone: chunk boundaries never
// shift an element.
func TestExpansionChunkingInvariant(t *testing.T) {
	key := shareKeyOf(prf.Key(3, prf.Share, 1<<31|2))
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
	s := scheme(t, 1<<11, 3)
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
	s := scheme(b, 1<<11, 3)
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
	r, err := newRing(s.Field())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(wire), "wire_B")
	// Keystream bytes a provider draws per cell: one 8-byte word per per
	// elements on each of its 2(c−1) streams.
	b.ReportMetric(8*float64(2*(s.Shares()-1))/float64(r.per), "ks_B/cell")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)*n), "ns/cell")
}

package core

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/mathx"
	"repro/internal/prf"
	"repro/internal/workload"
)

// publishKernel runs Equation 2 on its own — the kernel every construction
// ends with — over an explicit β vector.
func publishKernel(truth *bitmat.Matrix, betas []float64, seed int64) *bitmat.Matrix {
	return publishSharded(context.Background(), truth, betas, seed, 1)
}

// refCoin evaluates u(i, j) in full, one cell at a time and straight from
// its definition, sharing nothing with the kernel but the key: byte j of
// the CTR keystream is byte j%16 of AES_k(⌊j/16⌋ as a 128-bit big-endian
// counter), and the 56-bit tail is the first seven bytes of AES_k(1 ‖ j).
func refCoin(block cipher.Block, j int) uint64 {
	var in, out [aes.BlockSize]byte
	binary.BigEndian.PutUint64(in[8:], uint64(j/16))
	block.Encrypt(out[:], in[:])
	first := uint64(out[j%16])
	in = [aes.BlockSize]byte{0: 1}
	binary.BigEndian.PutUint64(in[8:], uint64(j))
	block.Encrypt(out[:], in[:])
	return first<<56 | binary.BigEndian.Uint64(out[:8])>>8
}

// refThreshold is ⌊β · 2⁶⁴⌋ by arbitrary-precision arithmetic.
func refThreshold(beta float64) uint64 {
	t, _ := new(big.Float).SetMantExp(big.NewFloat(beta), 64).Uint64()
	return t
}

func refBlock(seed int64, i int) cipher.Block {
	key := prf.Key(seed, prf.Publish, uint64(i))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	return block
}

// refPublish is Equation 2 bit by bit: every cell's full 64-bit coin is
// compared with the full threshold, through Get and Set.
func refPublish(truth *bitmat.Matrix, betas []float64, seed int64) *bitmat.Matrix {
	out := truth.Clone()
	for i := 0; i < truth.Rows(); i++ {
		block := refBlock(seed, i)
		for j := 0; j < truth.Cols(); j++ {
			b := betas[j]
			if b >= 1 || b > 0 && refCoin(block, j) < refThreshold(b) {
				out.Set(i, j, true)
			}
		}
	}
	return out
}

// paddingClear reports whether no bit past Cols is set: Count sees every
// word, ColCounts only real columns.
func paddingClear(m *bitmat.Matrix) bool {
	sum := 0
	for _, c := range m.ColCounts() {
		sum += c
	}
	return sum == m.Count()
}

func TestLessBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		x, y := rng.Uint64(), rng.Uint64()
		// Force equal and adjacent bytes, which random words almost never hold.
		for k := 0; k < 8; k++ {
			switch rng.Intn(4) {
			case 0:
				y = y&^(0xff<<(8*k)) | x&(0xff<<(8*k))
			case 1:
				y = y&^(0xff<<(8*k)) | (x+1<<(8*k))&(0xff<<(8*k))
			}
		}
		var wantLt, wantEq uint64
		for k := 0; k < 8; k++ {
			a, b := byte(x>>(8*k)), byte(y>>(8*k))
			if a < b {
				wantLt |= 1 << k
			}
			if a == b {
				wantEq |= 1 << k
			}
		}
		if lt, eq := lessBytes(x, y); lt != wantLt || eq != wantEq {
			t.Fatalf("lessBytes(%#016x, %#016x) = (%08b, %08b), want (%08b, %08b)", x, y, lt, eq, wantLt, wantEq)
		}
	}
}

// The lazy compare — first byte, tail only on a tie — must equal comparing
// the full 64-bit coin with T = ⌊β · 2⁶⁴⌋. Besides the fixed edge values,
// most columns get a β taken from a cell's own coin (and its float
// neighbours), so the first bytes tie and the tail decides.
func TestCoinExact(t *testing.T) {
	const rows, cols = 16, 400
	edges := []float64{
		0, math.Ldexp(1, -60), math.Ldexp(1, -70),
		1.0 / 256, math.Nextafter(1.0/256, 0), math.Nextafter(1.0/256, 1),
		0.5, 1 - math.Ldexp(1, -53), 1,
	}
	truth := bitmat.MustNew(rows, cols)
	for seed := int64(1); seed <= 5; seed++ {
		betas := make([]float64, cols)
		forced := 0
		for j := range betas {
			if j < len(edges) {
				betas[j] = edges[j]
				continue
			}
			u := refCoin(refBlock(seed, j%rows), j)
			beta := math.Ldexp(float64(u), -64)
			switch j % 3 {
			case 1:
				beta = math.Nextafter(beta, 0)
			case 2:
				beta = math.Nextafter(beta, 2)
			}
			betas[j] = beta
			if beta < 1 && refThreshold(beta)>>56 == u>>56 {
				forced++
			}
		}
		if forced < cols/2 {
			t.Fatalf("seed %d: only %d forced first-byte ties — the test no longer reaches the tail", seed, forced)
		}
		got := publishKernel(truth, betas, seed)
		if want := refPublish(truth, betas, seed); !got.Equal(want) {
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if got.Get(i, j) != want.Get(i, j) {
						t.Fatalf("seed %d cell (%d,%d) β=%v: kernel %v, full compare %v",
							seed, i, j, betas[j], got.Get(i, j), want.Get(i, j))
					}
				}
			}
		}
	}
}

// Monotone in β: raising any β_j (same seed) only adds published bits.
func TestPublishMonotoneInBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := randomMatrix(rng, 197, 331, 0.05)
	lo := make([]float64, 331)
	hi := make([]float64, 331)
	for j := range lo {
		switch j % 7 {
		case 0: // stays 0, then rises
			hi[j] = rng.Float64()
		case 1: // rises to 1
			lo[j], hi[j] = rng.Float64(), 1
		case 2: // unchanged
			lo[j] = rng.Float64()
			hi[j] = lo[j]
		default:
			lo[j] = rng.Float64()
			hi[j] = lo[j] + (1-lo[j])*rng.Float64()*rng.Float64()
		}
	}
	pubLo, pubHi := publishKernel(truth, lo, 9), publishKernel(truth, hi, 9)
	if !pubHi.Covers(pubLo) {
		t.Fatal("a cell published at β is not published at β′ ≥ β")
	}
	if !pubLo.Covers(truth) {
		t.Fatal("publication dropped a true bit")
	}
	if pubHi.Count() <= pubLo.Count() {
		t.Fatal("raising β added no bits (suspicious)")
	}
}

// Sticky: one more true bit in column j changes column j's β and nothing
// else, so with the same seed every other column of M′ must come out
// bit-identical and column j must nest. With coins drawn from a stream the
// one missing draw shifts every later cell of the tile.
func TestPublishStickyAcrossEpochs(t *testing.T) {
	const m, n, col, row = 300, 150, 64, 17
	rng := rand.New(rand.NewSource(7))
	before := randomMatrix(rng, m, n, 0.08)
	before.Set(row, col, false)
	after := before.Clone()
	after.Set(row, col, true)
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = 0.3 + 0.5*rng.Float64()
	}
	cfg := Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: 31}
	a, err := Construct(before, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Construct(after, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Betas[col] == b.Betas[col] {
		t.Fatal("fixture: the added bit did not move β (nothing to test)")
	}
	small, large := a, b
	if a.Betas[col] > b.Betas[col] {
		small, large = b, a
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			pa, pb := a.Published.Get(i, j), b.Published.Get(i, j)
			switch {
			case j != col && pa != pb:
				t.Fatalf("cell (%d,%d) flapped although its column did not change", i, j)
			case j == col && i != row && small.Published.Get(i, j) && !large.Published.Get(i, j):
				t.Fatalf("column %d does not nest at row %d", col, i)
			}
		}
	}
}

// Edges on a ragged shape: β = 0 columns untouched, β = 1 columns full,
// padding clear, and the same matrix at any worker count.
func TestPublishEdges(t *testing.T) {
	const m, n = 197, 331
	rng := rand.New(rand.NewSource(5))
	truth := randomMatrix(rng, m, n, 0.06)
	betas := make([]float64, n)
	for j := range betas {
		switch j % 3 {
		case 1:
			betas[j] = 1
		case 2:
			betas[j] = rng.Float64()
		}
	}
	betas[n-1] = 1 // the last real column, next to the padding
	want := publishKernel(truth, betas, 77)
	for j := 0; j < n; j++ {
		switch {
		case betas[j] == 0 && want.ColCount(j) != truth.ColCount(j):
			t.Fatalf("β=0 column %d gained bits", j)
		case betas[j] == 1 && want.ColCount(j) != m:
			t.Fatalf("β=1 column %d not full", j)
		}
	}
	if !want.Covers(truth) {
		t.Fatal("publication dropped a true bit")
	}
	if !paddingClear(want) {
		t.Fatal("padding bits set")
	}
	for _, workers := range []int{3, 8} {
		if got := publishSharded(context.Background(), truth, betas, 77, workers); !got.Equal(want) {
			t.Fatalf("workers=%d differs from workers=1", workers)
		}
	}
}

// FuzzPublishKernel pins the word-at-a-time kernel to the per-bit
// reference over random shapes (empty on either side, ragged or exact
// against the 64-column word) and β vectors drawn by profile % 5:
//
//   - 0: a mix of 0, 1, k/256 (a first-byte tie wherever the coin's first
//     byte is k) and arbitrary values;
//   - 1: 2⁻⁸ and its float neighbours, where T_j's first byte turns from 0
//     (tie-only) to 1 (listed);
//   - 2: words of exactly listedMax and listedMax+1 listed columns, on
//     either side of the list/SWAR switch;
//   - 3: no tie-only column (the zero-byte walk is skipped);
//   - 4: only tie-only columns.
//
// Every workers value in {1, 3, 8} must publish the same matrix.
func FuzzPublishKernel(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(9), uint8(0))
	f.Add(int64(2), uint8(9), uint8(0), uint8(0))
	for _, cols := range []uint8{1, 63, 64, 65, 130, 255} {
		f.Add(int64(cols), uint8(5), cols, uint8(0))
	}
	f.Add(int64(3), uint8(200), uint8(70), uint8(0))
	for profile := uint8(1); profile < 5; profile++ {
		f.Add(int64(profile), uint8(40), uint8(255), profile)
		f.Add(int64(10+profile), uint8(255), uint8(128), profile)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, profile uint8) {
		m, n := int(rows), int(cols)
		rng := rand.New(rand.NewSource(seed))
		truth := randomMatrix(rng, m, n, 0.1)
		betas := fuzzBetas(rng, n, profile%5)
		got := publishSharded(context.Background(), truth, betas, seed, 3)
		if want := refPublish(truth, betas, seed); !got.Equal(want) {
			t.Fatalf("%d×%d seed %d: kernel differs from the per-bit reference", m, n, seed)
		}
		if !paddingClear(got) {
			t.Fatalf("%d×%d seed %d: padding bits set", m, n, seed)
		}
		for _, workers := range []int{1, 8} {
			if other := publishSharded(context.Background(), truth, betas, seed, workers); !other.Equal(got) {
				t.Fatalf("%d×%d seed %d profile %d: workers=%d differs from workers=3", m, n, seed, profile%5, workers)
			}
		}
	})
}

// fuzzBetas draws FuzzPublishKernel's β vector of one profile.
func fuzzBetas(rng *rand.Rand, n int, profile uint8) []float64 {
	const edge = 1.0 / 256 // the smallest β whose T_j has first byte 1
	listed := func() float64 { return edge + (1-edge)*rng.Float64()*rng.Float64() }
	tieOnly := func() float64 { return math.Nextafter(edge*rng.Float64(), edge) }
	betas := make([]float64, n)
	for j := range betas {
		switch profile {
		case 0:
			switch rng.Intn(5) {
			case 0:
				betas[j] = 0
			case 1:
				betas[j] = 1
			case 2:
				betas[j] = float64(rng.Intn(256)) / 256
			case 3:
				betas[j] = math.Ldexp(rng.Float64(), -rng.Intn(70))
			default:
				betas[j] = rng.Float64()
			}
		case 1:
			betas[j] = []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1), 0, 1}[rng.Intn(5)]
		case 3:
			betas[j] = []float64{0, 1, listed(), listed()}[rng.Intn(4)]
		case 4:
			betas[j] = []float64{0, 1, tieOnly(), tieOnly()}[rng.Intn(4)]
		}
	}
	if profile == 2 {
		// Word w gets listedMax (even w) or listedMax+1 (odd w) listed
		// columns at random places; the rest are tie-only, 0 or 1.
		for w := 0; w*64 < n; w++ {
			cols := rng.Perm(64)[:listedMax+w%2]
			for k := w * 64; k < min(n, w*64+64); k++ {
				betas[k] = []float64{0, 1, tieOnly()}[rng.Intn(3)]
			}
			for _, c := range cols {
				if j := w*64 + c; j < n {
					betas[j] = listed()
				}
			}
		}
	}
	return betas
}

// benchShape is one benchmark workload's dataset and the configuration its
// construction runs (bench/pipeline.go): the trusted build at 4000 × 14 336
// or the secure build at 512 × 32 768. The deprecated Arithmetic and Wide
// fields bench/pipeline.go also sets change nothing, so they are left out.
type benchShape struct {
	name string
	data *workload.Dataset
	cfg  Config
}

func benchShapes(b *testing.B) []benchShape {
	b.Helper()
	gen := func(m, n int) *workload.Dataset {
		d, err := workload.GenerateZipf(workload.ZipfConfig{
			Providers: m, Owners: n, Exponent: 1.0, MaxFrequency: m / 5,
			EpsLow: 0.1, EpsHigh: 0.9, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	return []benchShape{
		{"trusted-4000x14336", gen(4000, 14336),
			Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: 1}},
		{"secure-512x32768", gen(512, 32768), Config{
			Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeSecure, C: 3, Seed: 1,
			CoinBits: 32,
		}},
	}
}

// BenchmarkPublish times Equation 2 alone at both benchmark shapes, each
// with the β vector its own construction produces: the trusted profile
// sends most columns down the tie-only walk, the secure one keeps every
// word on the SWAR compare.
func BenchmarkPublish(b *testing.B) {
	for _, sh := range benchShapes(b) {
		res, err := Construct(sh.data.Matrix, sh.data.Eps, sh.cfg)
		if err != nil {
			b.Fatal(err)
		}
		truth := sh.data.Matrix
		b.Run(sh.name, func(b *testing.B) {
			workers := runtime.NumCPU()
			for i := 0; i < b.N; i++ {
				publishSharded(context.Background(), truth, res.Betas, int64(i), workers)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(truth.Rows()*truth.Cols()), "ns/cell")
		})
	}
}

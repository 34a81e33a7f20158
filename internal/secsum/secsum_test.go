package secsum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/secretshare"
	"repro/internal/transport"
)

// scheme is the (c, c) scheme over Z_q, q a power of two.
func scheme(t testing.TB, q uint64, c int) secretshare.Scheme {
	t.Helper()
	f, err := field.NewAdditive(q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := secretshare.New(f, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runInMem(t testing.TB, s secretshare.Scheme, inputs [][]uint64, seed int64) *Result {
	t.Helper()
	net, err := transport.NewInMem(len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := Run(net, s, inputs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The paper's Figure 3 example, c=3, five providers with membership bits
// 0,1,1,0,0 for identity t0, over Z_8 (the paper's figure uses q=5); the
// coordinator shares must sum to 2.
func TestPaperFigure3(t *testing.T) {
	s := scheme(t, 8, 3)
	inputs := [][]uint64{{0}, {1}, {1}, {0}, {0}}
	res := runInMem(t, s, inputs, 1)
	if len(res.CoordinatorShares) != 3 {
		t.Fatalf("got %d coordinator vectors", len(res.CoordinatorShares))
	}
	freqs, err := Frequencies(s, res.CoordinatorShares)
	if err != nil {
		t.Fatal(err)
	}
	if freqs[0] != 2 {
		t.Fatalf("frequency = %d, want 2", freqs[0])
	}
	if res.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2", res.Rounds)
	}
}

func TestMultiIdentity(t *testing.T) {
	s := scheme(t, 1<<14, 3)
	m, n := 10, 20
	rng := rand.New(rand.NewSource(2))
	inputs := make([][]uint64, m)
	want := make([]uint64, n)
	for i := range inputs {
		inputs[i] = make([]uint64, n)
		for j := range inputs[i] {
			if rng.Intn(2) == 1 {
				inputs[i][j] = 1
				want[j]++
			}
		}
	}
	res := runInMem(t, s, inputs, 3)
	freqs, err := Frequencies(s, res.CoordinatorShares)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if freqs[j] != want[j] {
			t.Fatalf("identity %d: frequency %d, want %d", j, freqs[j], want[j])
		}
	}
}

func TestVaryCAndM(t *testing.T) {
	for _, c := range []int{2, 3, 5} {
		for _, m := range []int{c, c + 1, 2 * c, 17} {
			if m < c {
				continue
			}
			s := scheme(t, 1<<17, c)
			rng := rand.New(rand.NewSource(int64(c*100 + m)))
			n := 5
			inputs := make([][]uint64, m)
			want := make([]uint64, n)
			for i := range inputs {
				inputs[i] = make([]uint64, n)
				for j := range inputs[i] {
					v := uint64(rng.Intn(2))
					inputs[i][j] = v
					want[j] += v
				}
			}
			res := runInMem(t, s, inputs, int64(m))
			freqs, err := Frequencies(s, res.CoordinatorShares)
			if err != nil {
				t.Fatalf("c=%d m=%d: %v", c, m, err)
			}
			for j := range want {
				if freqs[j] != want[j] {
					t.Fatalf("c=%d m=%d identity %d: got %d want %d", c, m, j, freqs[j], want[j])
				}
			}
		}
	}
}

func TestMessageComplexity(t *testing.T) {
	// Each provider sends c-1 share messages and 1 super-share message:
	// total m·c messages on the wire.
	c, m := 3, 12
	s := scheme(t, 128, c)
	inputs := make([][]uint64, m)
	for i := range inputs {
		inputs[i] = []uint64{uint64(i % 2)}
	}
	res := runInMem(t, s, inputs, 4)
	if want := uint64(m * c); res.Stats.Messages != want {
		t.Fatalf("Messages = %d, want %d", res.Stats.Messages, want)
	}
}

func TestErrors(t *testing.T) {
	s := scheme(t, 128, 3)
	net, err := transport.NewInMem(2) // m < c
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := Run(net, s, [][]uint64{{1}, {0}}, 1); err == nil {
		t.Fatal("m < c accepted")
	}

	net3, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net3.Close()
	if _, err := Run(net3, s, [][]uint64{{1}, {0}}, 1); err == nil {
		t.Fatal("wrong input count accepted")
	}
	if _, err := Run(net3, s, [][]uint64{{1}, {0, 1}, {0}}, 1); err == nil {
		t.Fatal("ragged inputs accepted")
	}
}

func TestZeroIdentities(t *testing.T) {
	s := scheme(t, 128, 2)
	inputs := [][]uint64{{}, {}, {}}
	res := runInMem(t, s, inputs, 5)
	freqs, err := Frequencies(s, res.CoordinatorShares)
	if err != nil {
		t.Fatal(err)
	}
	if len(freqs) != 0 {
		t.Fatalf("freqs = %v, want empty", freqs)
	}
}

func TestFrequenciesValidation(t *testing.T) {
	s := scheme(t, 128, 3)
	if _, err := Frequencies(s, [][]uint64{{1}}); err == nil {
		t.Fatal("short coordinator set accepted")
	}
	if _, err := Frequencies(s, [][]uint64{{1}, {1, 2}, {1}}); err == nil {
		t.Fatal("ragged coordinator vectors accepted")
	}
}

// Secrecy smoke test: a single coordinator's share vector must not be a
// deterministic function of the inputs (it is masked by other providers'
// randomness). Two runs with different seeds must (almost surely) differ.
func TestCoordinatorSharesLookRandom(t *testing.T) {
	inputs := [][]uint64{{1, 0, 1}, {0, 0, 1}, {1, 1, 1}, {0, 0, 0}, {1, 0, 0}}
	for _, s := range []secretshare.Scheme{scheme(t, 1<<16, 3), scheme(t, 1<<11, 3)} {
		a := runInMem(t, s, inputs, 100)
		b := runInMem(t, s, inputs, 200)
		same := true
		for j := range a.CoordinatorShares[0] {
			if a.CoordinatorShares[0][j] != b.CoordinatorShares[0][j] {
				same = false
			}
		}
		if same {
			t.Fatalf("q=%d: coordinator 0's vector identical across independent runs", s.Field().Modulus())
		}
		// But the reconstructed sums must agree.
		fa, _ := Frequencies(s, a.CoordinatorShares)
		fb, _ := Frequencies(s, b.CoordinatorShares)
		for j := range fa {
			if fa[j] != fb[j] {
				t.Fatalf("q=%d: frequencies differ across runs", s.Field().Modulus())
			}
		}
	}
}

// Property: for random small networks the protocol always reproduces the
// plaintext column sums.
func TestProtocolCorrectQuick(t *testing.T) {
	s := scheme(t, 1<<14, 3)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(10)
		n := 1 + rng.Intn(8)
		inputs := make([][]uint64, m)
		want := make([]uint64, n)
		for i := range inputs {
			inputs[i] = make([]uint64, n)
			for j := range inputs[i] {
				v := uint64(rng.Intn(2))
				inputs[i][j] = v
				want[j] += v
			}
		}
		net, err := transport.NewInMem(m)
		if err != nil {
			return false
		}
		defer net.Close()
		res, err := Run(net, s, inputs, seed)
		if err != nil {
			return false
		}
		freqs, err := Frequencies(s, res.CoordinatorShares)
		if err != nil {
			return false
		}
		for j := range want {
			if freqs[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The protocol must also work over real TCP.
func TestOverTCP(t *testing.T) {
	s := scheme(t, 1<<14, 3)
	m, n := 6, 4
	rng := rand.New(rand.NewSource(6))
	inputs := make([][]uint64, m)
	want := make([]uint64, n)
	for i := range inputs {
		inputs[i] = make([]uint64, n)
		for j := range inputs[i] {
			v := uint64(rng.Intn(2))
			inputs[i][j] = v
			want[j] += v
		}
	}
	net, err := transport.NewTCP(m)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := Run(net, s, inputs, 7)
	if err != nil {
		t.Fatal(err)
	}
	freqs, err := Frequencies(s, res.CoordinatorShares)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if freqs[j] != want[j] {
			t.Fatalf("identity %d: got %d want %d", j, freqs[j], want[j])
		}
	}
}

func BenchmarkSecSumShare100x64(b *testing.B) {
	s := scheme(b, 1<<8, 3)
	m, n := 100, 64
	rng := rand.New(rand.NewSource(8))
	inputs := make([][]uint64, m)
	for i := range inputs {
		inputs[i] = make([]uint64, n)
		for j := range inputs[i] {
			inputs[i][j] = uint64(rng.Intn(2))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := transport.NewInMem(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(net, s, inputs, int64(i)); err != nil {
			b.Fatal(err)
		}
		net.Close()
	}
}

// TestMetricsWiring checks that Run reports phase timers and traffic
// through a registry attached to the network with transport.Instrument.
func TestMetricsWiring(t *testing.T) {
	s := scheme(t, 1<<17, 3)
	inputs := [][]uint64{{1, 0}, {0, 1}, {1, 1}, {0, 0}}
	net, err := transport.NewInMem(len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	reg := metrics.NewRegistry()
	transport.Instrument(net, reg)
	res, err := Run(net, s, inputs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("eppi_secsum_runs_total", "").Value(); got != 1 {
		t.Fatalf("runs_total = %d, want 1", got)
	}
	if got := reg.Counter("eppi_secsum_rounds_total", "").Value(); got != 2 {
		t.Fatalf("rounds_total = %d, want 2", got)
	}
	for _, phase := range []string{"distribute", "aggregate", "coordinate"} {
		h := reg.Histogram("eppi_secsum_phase_seconds", "", nil, metrics.L("phase", phase))
		want := uint64(len(inputs))
		if phase == "coordinate" {
			want = 3 // only the c coordinators gather
		}
		if h.Count() != want {
			t.Errorf("phase %q observed %d times, want %d", phase, h.Count(), want)
		}
	}
	if got := reg.Counter("eppi_transport_messages_total", "").Value(); got != res.Stats.Messages {
		t.Fatalf("registry saw %d messages, Stats %d", got, res.Stats.Messages)
	}
	if got := reg.Counter("eppi_transport_bytes_total", "").Value(); got != res.Stats.Bytes {
		t.Fatalf("registry saw %d bytes, Stats %d", got, res.Stats.Bytes)
	}
}

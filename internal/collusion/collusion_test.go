package collusion

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/secretshare"
	"repro/internal/secsum"
	"repro/internal/transport"
)

const (
	testM = 9 // providers
	testC = 3 // coordinators / share count
	testN = 4 // identities
)

func runRecorded(t *testing.T, inputs [][]uint64, seed int64) (*RecordingNetwork, secretshare.Scheme) {
	t.Helper()
	f, err := field.NewAdditive(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := secretshare.New(f, testC)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := transport.NewInMem(len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecording(inner)
	if _, err := secsum.Run(rec, scheme, inputs, seed); err != nil {
		t.Fatal(err)
	}
	return rec, scheme
}

func testInputs(rng *rand.Rand) ([][]uint64, []uint64) {
	inputs := make([][]uint64, testM)
	freqs := make([]uint64, testN)
	for i := range inputs {
		inputs[i] = make([]uint64, testN)
		for j := range inputs[i] {
			v := uint64(rng.Intn(2))
			inputs[i][j] = v
			freqs[j] += v
		}
	}
	return inputs, freqs
}

func TestFullCoordinatorCoalitionReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs, freqs := testInputs(rng)
	rec, scheme := runRecorded(t, inputs, 2)
	defer rec.Close()
	coal, err := NewCoalition(rec, []int{0, 1, 2}, inputs) // all c coordinators
	if err != nil {
		t.Fatal(err)
	}
	got, err := coal.ReconstructFrequencies(scheme, testN)
	if err != nil {
		t.Fatal(err)
	}
	for j := range freqs {
		if got[j] != freqs[j] {
			t.Fatalf("identity %d: reconstructed %d, want %d", j, got[j], freqs[j])
		}
	}
}

func TestSubThresholdCoalitionCannotReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs, _ := testInputs(rng)
	rec, scheme := runRecorded(t, inputs, 4)
	defer rec.Close()
	// Two of three coordinators plus two extra providers: still missing
	// coordinator 2's vector.
	coal, err := NewCoalition(rec, []int{0, 1, 5, 7}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coal.ReconstructFrequencies(scheme, testN); err == nil {
		t.Fatal("sub-threshold coalition reconstructed the frequencies")
	}
}

func TestCoalitionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs, _ := testInputs(rng)
	rec, _ := runRecorded(t, inputs, 6)
	defer rec.Close()
	if _, err := NewCoalition(rec, []int{99}, inputs); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	coal, err := NewCoalition(rec, []int{3}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if coal.Contains(4) || !coal.Contains(3) {
		t.Fatal("Contains wrong")
	}
}

// Indistinguishability: the share values a sub-threshold coalition observes
// are statistically independent of the honest providers' secrets. We run
// the protocol many times in two "worlds" that differ only in non-member
// inputs and compare the empirical mean of observed shares — they must
// agree within noise (uniform distribution over Z_q in both worlds).
func TestObservedSharesIndependentOfSecrets(t *testing.T) {
	f, err := field.NewAdditive(128) // small ring so means converge fast
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := secretshare.New(f, testC)
	if err != nil {
		t.Fatal(err)
	}
	meanObserved := func(world uint64, seedBase int64) float64 {
		var sum, count float64
		for trial := 0; trial < 300; trial++ {
			inputs := make([][]uint64, testM)
			for i := range inputs {
				inputs[i] = []uint64{world} // every honest input = world value
			}
			inner, err := transport.NewInMem(testM)
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecording(inner)
			if _, err := secsum.Run(rec, scheme, inputs, seedBase+int64(trial)); err != nil {
				t.Fatal(err)
			}
			coal, err := NewCoalition(rec, []int{0, 4}, inputs) // 1 coordinator + 1 provider
			if err != nil {
				t.Fatal(err)
			}
			for _, obs := range coal.ShareObservations(1) {
				for _, v := range obs {
					sum += float64(v)
					count++
				}
			}
			rec.Close()
		}
		return sum / count
	}
	m0 := meanObserved(0, 1000)
	m1 := meanObserved(1, 5000)
	// Uniform over Z_128 has mean 63.5; allow generous sampling noise.
	if math.Abs(m0-63.5) > 5 || math.Abs(m1-63.5) > 5 {
		t.Fatalf("observed share means %v / %v stray from uniform", m0, m1)
	}
	if math.Abs(m0-m1) > 7 {
		t.Fatalf("coalition view distinguishes worlds: %v vs %v", m0, m1)
	}
}

func TestRecordingCapturesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs, _ := testInputs(rng)
	rec, _ := runRecorded(t, inputs, 8)
	defer rec.Close()
	// Every provider receives c-1 = 2 share messages; coordinators also
	// receive super-shares.
	for id := 0; id < testM; id++ {
		msgs := rec.Received(id)
		shares := 0
		supers := 0
		for _, m := range msgs {
			switch m.Kind {
			case transport.KindShare:
				shares++
			case transport.KindSuperShare:
				supers++
			}
		}
		if shares != testC-1 {
			t.Fatalf("provider %d received %d share messages, want %d", id, shares, testC-1)
		}
		if id < testC && supers == 0 {
			t.Fatalf("coordinator %d received no super-shares", id)
		}
		if id >= testC && supers != 0 {
			t.Fatalf("non-coordinator %d received super-shares", id)
		}
	}
}

// runRecordedBits is runRecorded over the ring construction uses: Z_{2^w},
// w = bits(m+1) + 1 as core picks it, with the inputs handed to
// secsum.RunBits as bit rows.
func runRecordedBits(t *testing.T, inputs [][]uint64, seed int64) (*RecordingNetwork, secretshare.Scheme) {
	t.Helper()
	f, err := field.NewAdditive(1 << (bits.Len(uint(len(inputs)+1)) + 1))
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := secretshare.New(f, testC)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]uint64, len(inputs))
	for i, in := range inputs {
		rows[i] = make([]uint64, (len(in)+63)/64)
		for j, v := range in {
			rows[i][j/64] |= (v & 1) << (j % 64)
		}
	}
	inner, err := transport.NewInMem(len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecording(inner)
	if _, err := secsum.RunBits(rec, scheme, testN, func(i int) []uint64 { return rows[i] }, seed); err != nil {
		t.Fatal(err)
	}
	return rec, scheme
}

// Over Z_{2^w} the share keys a recording holds expand (secsum.ExpandShare)
// to exactly what their senders used: every recorded super-share equals
// its sender's input minus the expansions of the keys it sent plus those of
// the keys it received. The full coordinator set reconstructs.
func TestPowerOfTwoRingRecordedShares(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs, freqs := testInputs(rng)
	rec, scheme := runRecordedBits(t, inputs, 12)
	defer rec.Close()
	f := scheme.Field()
	expand := func(key []uint64) []uint64 {
		t.Helper()
		shares, err := secsum.ExpandShare(f, key, testN)
		if err != nil {
			t.Fatal(err)
		}
		return shares
	}
	for p := 0; p < testM; p++ {
		want := append([]uint64(nil), inputs[p]...)
		for k := 1; k < testC; k++ {
			for _, msg := range rec.Received((p + k) % testM) {
				if msg.Kind == transport.KindShare && msg.From == p {
					for j, v := range expand(msg.Data) {
						want[j] = f.Sub(want[j], v)
					}
				}
			}
		}
		var super []uint64
		for _, msg := range rec.Received(p) {
			if msg.Kind == transport.KindShare {
				for j, v := range expand(msg.Data) {
					want[j] = f.Add(want[j], v)
				}
			}
		}
		for _, msg := range rec.Received(p % testC) {
			if msg.Kind == transport.KindSuperShare && msg.From == p {
				var err error
				if super, err = secsum.DecodeSuperShare(f, msg.Data, testN); err != nil {
					t.Fatal(err)
				}
			}
		}
		if super == nil {
			t.Fatalf("no super-share from provider %d recorded", p)
		}
		for j := range want {
			if super[j] != want[j] {
				t.Fatalf("provider %d identity %d: sent %d, keys and input give %d", p, j, super[j], want[j])
			}
		}
	}
	coal, err := NewCoalition(rec, []int{0, 1, 2}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coal.ReconstructFrequencies(scheme, testN)
	if err != nil {
		t.Fatal(err)
	}
	for j := range freqs {
		if got[j] != freqs[j] {
			t.Fatalf("identity %d: reconstructed %d, want %d", j, got[j], freqs[j])
		}
	}
}

// Every coalition of c−1 providers over Z_{2^w} observes shares whose mean
// sits at the uniform (q−1)/2 whether every honest input is 0 or 1.
func TestPowerOfTwoRingCoalitionsLearnNothing(t *testing.T) {
	const trials = 100
	var coalitions [][]int
	for a := 0; a < testM; a++ {
		for b := a + 1; b < testM; b++ {
			coalitions = append(coalitions, []int{a, b}) // c − 1 = 2 members
		}
	}
	var q float64
	means := func(world uint64, seedBase int64) []float64 {
		sum := make([]float64, len(coalitions))
		count := make([]float64, len(coalitions))
		for trial := 0; trial < trials; trial++ {
			inputs := make([][]uint64, testM)
			for i := range inputs {
				inputs[i] = []uint64{world, world, world, world}
			}
			rec, scheme := runRecordedBits(t, inputs, seedBase+int64(trial))
			q = float64(scheme.Field().Modulus())
			for i, members := range coalitions {
				coal, err := NewCoalition(rec, members, inputs)
				if err != nil {
					t.Fatal(err)
				}
				for _, obs := range coal.ShareObservations(testN) {
					for _, v := range obs {
						sum[i] += float64(v)
						count[i]++
					}
				}
			}
			rec.Close()
		}
		for i := range sum {
			if count[i] == 0 {
				t.Fatalf("coalition %v observed no shares", coalitions[i])
			}
			sum[i] /= count[i]
		}
		return sum
	}
	m0, m1 := means(0, 1000), means(1, 5000)
	// ≥ 1200 observations per coalition and world (at least three keys
	// from non-members, four identities each): the standard error of a
	// uniform Z_32 mean is ≈ 0.27, so 2.5 is over nine of them.
	for i, members := range coalitions {
		mid := (q - 1) / 2
		if math.Abs(m0[i]-mid) > 2.5 || math.Abs(m1[i]-mid) > 2.5 {
			t.Fatalf("coalition %v: observed share means %v / %v stray from uniform %v", members, m0[i], m1[i], mid)
		}
		if math.Abs(m0[i]-m1[i]) > 3 {
			t.Fatalf("coalition %v distinguishes worlds: %v vs %v", members, m0[i], m1[i])
		}
	}
}

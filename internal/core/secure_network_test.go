package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// netLog records the networks a construction opens, in order, and every
// open that found an earlier network still open.
type netLog struct {
	mu      sync.Mutex
	nets    []*loggedNet
	overlap []string
}

// loggedNet is an in-memory network that records whether it was closed,
// its traffic at close, and the first output-share payload each party
// sent.
type loggedNet struct {
	*transport.InMemNetwork
	log    *netLog
	closed bool
	stats  transport.Stats
	sent   map[int][]uint64 // party → its KindGMWOutput payload
}

// loggedNode records the KindGMWOutput payloads its party sends.
type loggedNode struct {
	transport.Node
	net *loggedNet
}

func (n *loggedNet) Node(id int) transport.Node {
	return &loggedNode{Node: n.InMemNetwork.Node(id), net: n}
}

func (n *loggedNode) Send(to int, m transport.Message) error {
	if m.Kind == transport.KindGMWOutput {
		n.net.log.mu.Lock()
		if _, ok := n.net.sent[n.ID()]; !ok {
			n.net.sent[n.ID()] = slices.Clone(m.Data)
		}
		n.net.log.mu.Unlock()
	}
	return n.Node.Send(to, m)
}

// opened XORs the output shares the parties sent, one per sender: the
// words the execution opened, or nil if it opened nothing.
func (n *loggedNet) opened() []uint64 {
	var out []uint64
	for _, data := range n.sent {
		if out == nil {
			out = make([]uint64, len(data))
		}
		for i, w := range data {
			out[i] ^= w
		}
	}
	return out
}

func (l *netLog) open(parties int) (transport.Network, error) {
	inner, err := transport.NewInMem(parties)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, n := range l.nets {
		if !n.closed {
			l.overlap = append(l.overlap, fmt.Sprintf("network %d opened while network %d was open", len(l.nets), i))
		}
	}
	n := &loggedNet{InMemNetwork: inner, log: l, sent: make(map[int][]uint64)}
	l.nets = append(l.nets, n)
	return n, nil
}

func (n *loggedNet) Close() error {
	n.log.mu.Lock()
	if !n.closed {
		n.closed, n.stats = true, n.Stats()
	}
	n.log.mu.Unlock()
	return n.InMemNetwork.Close()
}

func secureNetFixture() (*bitmat.Matrix, []float64) {
	rng := rand.New(rand.NewSource(8))
	truth := randomMatrix(rng, 12, 70, 0.4)
	eps := make([]float64, 70)
	for j := range eps {
		eps[j] = 0.3 + 0.5*rng.Float64()
	}
	return truth, eps
}

// A secure construction opens one m-party network for SecSumShare, then
// one c-party network per MPC execution (CountBelowSlice, the two count
// levels, RevealSlice), each closed before the next opens; the executions'
// traffic sums to SecureStats.MPC.
func TestSecureOpensOneNetworkPerExecution(t *testing.T) {
	truth, eps := secureNetFixture()
	var log netLog
	cfg := secureCfg(5)
	cfg.NewNetwork = log.open
	res, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var parties []int
	for i, n := range log.nets {
		parties = append(parties, n.Size())
		if !n.closed {
			t.Errorf("network %d left open", i)
		}
	}
	if want := []int{12, 3, 3, 3, 3}; fmt.Sprint(parties) != fmt.Sprint(want) {
		t.Fatalf("opened networks of %v parties, want %v", parties, want)
	}
	for _, o := range log.overlap {
		t.Error(o)
	}
	if st := log.nets[0].stats; st != res.Secure.SecSum {
		t.Errorf("provider network carried %+v, SecureStats.SecSum %+v", st, res.Secure.SecSum)
	}
	var mpc transport.Stats
	for i, n := range log.nets[1:] {
		if n.stats.Messages == 0 {
			t.Errorf("execution %d sent no message", i+1)
		}
		mpc.Messages += n.stats.Messages
		mpc.Bytes += n.stats.Bytes
	}
	if mpc != res.Secure.MPC {
		t.Errorf("executions carried %+v in sum, SecureStats.MPC %+v", mpc, res.Secure.MPC)
	}
}

// Stage B opens one value: the common count, in lane 0 of one execution,
// whatever the deprecated BatchSize says. The Reveal execution, the last,
// opens the hidden bits and the frequencies of the identities not hidden.
// The fixture's four commons fall in four different words.
func TestStageBOpensOneCount(t *testing.T) {
	const m, n = 9, 300
	freqs := make([]int, n)
	eps := make([]float64, n)
	for j := range freqs {
		freqs[j] = 1
		eps[j] = 0.5
	}
	for _, j := range []int{0, 70, 140, 290} {
		freqs[j] = m
	}
	truth := matrixWithFreqs(m, freqs)
	for _, batch := range []int{0, 1, 128} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			var log netLog
			cfg := secureCfg(71)
			cfg.BatchSize = batch
			cfg.NewNetwork = log.open
			res, err := Construct(truth, eps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.CommonCount != 4 {
				t.Fatalf("CommonCount = %d, want 4", res.CommonCount)
			}
			reveal := log.nets[len(log.nets)-1]
			var counts [][]uint64
			for _, net := range log.nets[:len(log.nets)-1] {
				if words := net.opened(); words != nil {
					counts = append(counts, words)
				}
			}
			if len(counts) != 1 {
				t.Fatalf("%d executions before Reveal opened something, want 1", len(counts))
			}
			var count int
			for i, w := range counts[0] {
				count |= int(w&1) << i
				if w&^1 != 0 {
					t.Errorf("opened word %d carries lanes %#x beyond lane 0", i, w&^1)
				}
			}
			if count != res.CommonCount {
				t.Errorf("stage B opened %d, CommonCount %d", count, res.CommonCount)
			}

			// Reveal: the hidden bit, then W masked-frequency bits, per word.
			words := (n + 63) / 64
			opened := reveal.opened()
			w := len(opened)/words - 1
			if len(opened) != (1+w)*words || w < 2 {
				t.Fatalf("Reveal opened %d words over %d words per wire", len(opened), words)
			}
			for j := 0; j < n; j++ {
				bit := func(wire int) int { return int(opened[wire*words+j/64] >> (j % 64) & 1) }
				var freq int
				for i := 0; i < w; i++ {
					freq |= bit(1+i) << i
				}
				if hidden := bit(0) == 1; hidden != res.Hidden[j] {
					t.Fatalf("identity %d: Reveal opened hidden=%v, Result %v", j, hidden, res.Hidden[j])
				}
				if want := freqs[j]; res.Hidden[j] && freq != 0 || !res.Hidden[j] && freq != want {
					t.Fatalf("identity %d (hidden %v): Reveal opened frequency %d, true %d", j, res.Hidden[j], freq, want)
				}
			}
		})
	}
}

// Every network of a construction reports into Config.Metrics, and each
// message is counted once: the registry's transport totals equal
// SecSumShare plus MPC traffic.
func TestSecureRegistryCountsEachMessageOnce(t *testing.T) {
	truth, eps := secureNetFixture()
	reg := metrics.NewRegistry()
	cfg := secureCfg(5)
	cfg.Metrics = reg
	res, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Secure
	msgs := reg.Counter("eppi_transport_messages_total", "").Value()
	if want := st.SecSum.Messages + st.MPC.Messages; msgs != want {
		t.Errorf("registry counted %d messages, want %d", msgs, want)
	}
	bytes := reg.Counter("eppi_transport_bytes_total", "").Value()
	if want := st.SecSum.Bytes + st.MPC.Bytes; bytes != want {
		t.Errorf("registry counted %d bytes, want %d", bytes, want)
	}
}

// Over TCP, every goroutine a construction starts (reader pumps, parties,
// workers) has exited by the time Construct returns.
func TestSecureTCPLeavesNoGoroutines(t *testing.T) {
	truth, eps := secureNetFixture()
	cfg := secureCfg(5)
	cfg.NewNetwork = func(parties int) (transport.Network, error) { return transport.NewTCP(parties) }
	before := runtime.NumGoroutine()
	if _, err := Construct(truth, eps, cfg); err != nil {
		t.Fatal(err)
	}
	// A goroutine may still be unwinding after its last Done; allow it a
	// moment, not a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before Construct, %d after:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"runtime"
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

// loggedNet is an in-memory network that records whether it was closed
// and its traffic at close.
type loggedNet struct {
	*transport.InMemNetwork
	log    *netLog
	closed bool
	stats  transport.Stats
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
	n := &loggedNet{InMemNetwork: inner, log: l}
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
// one c-party network per MPC execution (CountBelowSlice, the count
// opener, RevealSlice), each closed before the next opens; the executions'
// traffic sums to SecureStats.MPC.
func TestSecureOpensOneNetworkPerExecution(t *testing.T) {
	truth, eps := secureNetFixture()
	var log netLog
	cfg := secureCfg(5)
	cfg.BatchSize = 16
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
	if want := []int{12, 3, 3, 3}; fmt.Sprint(parties) != fmt.Sprint(want) {
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

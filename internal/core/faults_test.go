package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/transport"
)

// faultySecureCfg returns a secure config whose network factory injects
// plan into the networks of one tier: net = 1 faults the m-party
// SecSumShare network (the first the construction opens), net = 2 every
// c-party network after it, one per MPC execution. Faulting all of them
// keeps the scenario of a faulty coordinator tier: semi-honest GMW has no
// integrity check, so corruption confined to one execution can pass
// silently where a later execution would fail.
func faultySecureCfg(seed int64, net int, plan transport.FaultPlan) Config {
	cfg := secureCfg(seed)
	cfg.Workers = 4
	call := 0
	cfg.NewNetwork = func(parties int) (transport.Network, error) {
		inner, err := transport.NewInMem(parties)
		if err != nil {
			return nil, err
		}
		call++
		if net == 1 && call == 1 || net == 2 && call >= 2 {
			return transport.NewFaulty(inner, plan), nil
		}
		return inner, nil
	}
	return cfg
}

// runConstructGuarded runs Construct with a hang guard: the parallel
// secure path must surface an injected fault as a prompt error, never by
// stalling on a dead network or returning a half-built matrix.
func runConstructGuarded(t *testing.T, truth *bitmat.Matrix, eps []float64, cfg Config) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Construct(truth, eps, cfg)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err == nil {
			t.Fatal("construction over a faulty network succeeded")
		}
		if out.res != nil {
			t.Fatalf("got a partial result alongside error %v", out.err)
		}
		t.Logf("failed promptly: %v", out.err)
	case <-time.After(30 * time.Second):
		t.Fatal("construction hung on injected fault")
	}
}

// TestSecureConstructFaultInjection drives the parallel secure pipeline
// over a transport.FaultyNetwork: a crashed sender, wholesale payload
// corruption, and total message loss each have to abort the run.
func TestSecureConstructFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	truth := randomMatrix(rng, 9, 7, 0.4)
	eps := make([]float64, 7)
	for j := range eps {
		eps[j] = 0.6
	}

	cases := []struct {
		name string
		net  int
		plan transport.FaultPlan
	}{
		{
			name: "crashed sender in SecSumShare",
			net:  1,
			plan: transport.FaultPlan{FailSendFrom: map[int]bool{2: true}, Seed: 3},
		},
		{
			name: "crashed coordinator under concurrent batches",
			net:  2,
			plan: transport.FaultPlan{FailSendFrom: map[int]bool{1: true}, Seed: 4},
		},
		{
			name: "corrupted MPC payloads",
			net:  2,
			plan: transport.FaultPlan{CorruptRate: 1, Seed: 5},
		},
		{
			name: "dropped MPC messages",
			net:  2,
			plan: transport.FaultPlan{DropRate: 1, RecvTimeout: 250 * time.Millisecond, Seed: 6},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runConstructGuarded(t, truth, eps, faultySecureCfg(11, tc.net, tc.plan))
		})
	}
}

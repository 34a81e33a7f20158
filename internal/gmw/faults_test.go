package gmw

import (
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/transport"
)

func andCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	z := b.Input(2)
	if err := b.Output(b.AND(b.AND(x, y), z)); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// allOnes sets every lane of andCircuit's three inputs.
var allOnes = [][]uint64{{^uint64(0)}, {^uint64(0)}, {^uint64(0)}}

func TestCrashedPartyFailsFast(t *testing.T) {
	circ := andCircuit(t)
	inner, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewFaulty(inner, transport.FaultPlan{FailSendFrom: map[int]bool{1: true}})
	defer net.Close()
	done := make(chan error, 1)
	go func() {
		_, e := runDealer(net, circ, 1, allOnes, 1, Open)
		done <- e
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("MPC succeeded despite crashed party")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("MPC hung with crashed party")
	}
}

func TestDroppedMessagesAbortOnClose(t *testing.T) {
	circ := andCircuit(t)
	inner, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewFaulty(inner, transport.FaultPlan{DropRate: 1, Seed: 2})
	done := make(chan error, 1)
	go func() {
		_, e := runDealer(net, circ, 1, allOnes, 3, Open)
		done <- e
	}()
	time.Sleep(50 * time.Millisecond)
	net.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("MPC succeeded with every message dropped")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("MPC hung after network close")
	}
}

// Disagreeing outputs (caused by corrupted share traffic) must be detected
// by the cross-party output comparison rather than returned silently.
func TestCorruptedTrafficDetected(t *testing.T) {
	circ := andCircuit(t)
	detected := 0
	const runs = 10
	for i := 0; i < runs; i++ {
		inner, err := transport.NewInMem(3)
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewFaulty(inner, transport.FaultPlan{CorruptRate: 0.5, Seed: int64(i)})
		_, err = runDealer(net, circ, 1, allOnes, int64(i), Open)
		net.Close()
		if err != nil {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no corrupted run was detected across output reconstruction")
	}
}

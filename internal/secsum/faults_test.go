package secsum

import (
	"errors"
	"testing"
	"time"

	"repro/internal/secretshare"
	"repro/internal/transport"
)

// Fault-injection tests: the protocol must fail loudly — returning an
// error in bounded time — when the network misbehaves, never hang and
// never deliver a wrong sum silently... except that payload corruption
// that still decodes is indistinguishable from a different random share
// (additive shares carry no redundancy), which is exactly the semi-honest
// model's boundary: integrity against active tampering requires
// authenticated sharing, out of the paper's scope. What does not decode —
// see reject_test.go — fails closed.

func runWithDeadline(t *testing.T, name string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: protocol hung", name)
		return nil
	}
}

func TestCrashedProviderFailsFast(t *testing.T) {
	s := scheme(t, 10007, 3)
	inner, err := transport.NewInMem(5)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewFaulty(inner, transport.FaultPlan{FailSendFrom: map[int]bool{2: true}})
	defer net.Close()
	inputs := [][]uint64{{1}, {0}, {1}, {0}, {1}}
	err = runWithDeadline(t, "crashed provider", func() error {
		_, e := Run(net, s, inputs, 1)
		return e
	})
	if err == nil {
		t.Fatal("protocol succeeded despite crashed provider")
	}
}

func TestDroppedMessagesFailFast(t *testing.T) {
	s := scheme(t, 10007, 3)
	inner, err := transport.NewInMem(6)
	if err != nil {
		t.Fatal(err)
	}
	// Drop everything: every provider will wait for shares that never
	// arrive; the run must abort once any party errors (send never errors
	// on drop, so the unblocking comes from the test closing the network).
	net := transport.NewFaulty(inner, transport.FaultPlan{DropRate: 1, Seed: 2})
	inputs := make([][]uint64, 6)
	for i := range inputs {
		inputs[i] = []uint64{1}
	}
	done := make(chan error, 1)
	go func() {
		_, e := Run(net, s, inputs, 3)
		done <- e
	}()
	// Give the protocol a moment to wedge, then close the network: Run
	// must return an error promptly rather than leak its goroutines.
	time.Sleep(50 * time.Millisecond)
	net.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("protocol succeeded with all messages dropped")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("protocol hung after network close")
	}
}

// Payload corruption is undetectable wherever every bit pattern is a valid
// message, and the packed super-share leaves no redundancy to check in a
// power-of-two group whose element width w divides 64 (no padding bits) when
// n fills the last word. Key messages are two arbitrary words in any ring.
// The test states both rows of the boundary.
func TestCorruptedShareStillSums(t *testing.T) {
	inputs := [][]uint64{{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}}
	corrupted := func(t *testing.T, s secretshare.Scheme) (*Result, error) {
		inner, err := transport.NewInMem(len(inputs))
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewFaulty(inner, transport.FaultPlan{CorruptRate: 1, Seed: 4})
		defer net.Close()
		var res *Result
		err = runWithDeadline(t, "corrupted", func() (e error) {
			res, e = Run(net, s, inputs, 5)
			return e
		})
		return res, err
	}

	// Z_{2^16}: four 16-bit elements fill each word, so the run completes
	// and the sum is wrong.
	t.Run("power-of-two group completes with a wrong sum", func(t *testing.T) {
		s := additive(t, 1<<16, 3)
		res, err := corrupted(t, s)
		if err != nil {
			t.Fatalf("corruption in a padding-free group must go undetected: %v", err)
		}
		freqs, err := Frequencies(s, res.CoordinatorShares)
		if err != nil {
			t.Fatal(err)
		}
		right := 0
		for _, f := range freqs {
			if f == 5 {
				right++
			}
		}
		if right == len(freqs) {
			t.Fatal("every corrupted sum came out right (probability 2^-64)")
		}
	})

	// Z_104729: 17-bit elements leave padding and 2^17 − q out-of-range
	// values per slot, so the coordinator either folds garbage or rejects it
	// as malformed — never anything else.
	t.Run("prime field completes or fails with the range error", func(t *testing.T) {
		s := scheme(t, 104729, 3)
		res, err := corrupted(t, s)
		if err != nil {
			if !errors.Is(err, ErrMalformedShare) {
				t.Fatalf("corrupted run failed with %v, want ErrMalformedShare", err)
			}
			return
		}
		if _, err := Frequencies(s, res.CoordinatorShares); err != nil {
			t.Fatal(err)
		}
	})
}

package secsum

import (
	"errors"
	"testing"

	"repro/internal/transport"
)

// Hostile share bytes fail closed: each test below rewrites one message in
// flight and requires Run to return ErrMalformedShare in bounded time — no
// panic, no hang, no sum.

// tamperNet routes every Send through hook, which may rewrite the payload,
// the destination and the endpoint it leaves from (via), so a test can
// forge the sender a receiver sees.
type tamperNet struct {
	transport.Network
	hook func(from, to int, m transport.Message) (via, dest int, out transport.Message)
}

func (n *tamperNet) Node(i int) transport.Node {
	return tamperNode{Node: n.Network.Node(i), net: n}
}

type tamperNode struct {
	transport.Node
	net *tamperNet
}

func (n tamperNode) Send(to int, m transport.Message) error {
	via, dest, m := n.net.hook(n.ID(), to, m)
	return n.net.Network.Node(via).Send(dest, m)
}

// mustReject runs SecSumShare over Z_{2^14} (14-bit elements, four per
// word, eight bits of padding per word) among six providers, c = 3, with
// hook applied to every message, and requires ErrMalformedShare.
func mustReject(t *testing.T, hook func(from, to int, m transport.Message) (int, int, transport.Message)) {
	t.Helper()
	s := scheme(t, 1<<14, 3)
	inner, err := transport.NewInMem(6)
	if err != nil {
		t.Fatal(err)
	}
	net := &tamperNet{Network: inner, hook: hook}
	defer net.Close()
	inputs := make([][]uint64, 6)
	for i := range inputs {
		inputs[i] = []uint64{1, 0, 1, 1, 0, 1}
	}
	err = runWithDeadline(t, "tampered", func() error {
		_, e := Run(net, s, inputs, 9)
		return e
	})
	if !errors.Is(err, ErrMalformedShare) {
		t.Fatalf("tampered run returned %v, want ErrMalformedShare", err)
	}
}

// edit returns a hook that applies fn to a copy of the payload of party
// from's first message of kind.
func edit(kind transport.Kind, from int, fn func([]uint64) []uint64) func(int, int, transport.Message) (int, int, transport.Message) {
	return func(f, to int, m transport.Message) (int, int, transport.Message) {
		if f == from && m.Kind == kind && (kind != transport.KindShare || m.Seq == 1) {
			m.Data = fn(append([]uint64(nil), m.Data...))
		}
		return f, to, m
	}
}

func TestRejectsShareKeyLength(t *testing.T) {
	for _, words := range []int{0, 1, 3, 1 << 10} {
		mustReject(t, edit(transport.KindShare, 2, func([]uint64) []uint64 { return make([]uint64, words) }))
	}
}

func TestRejectsSuperShareLength(t *testing.T) {
	// Six identities at four per word: exactly two words.
	mustReject(t, edit(transport.KindSuperShare, 4, func(d []uint64) []uint64 { return d[:1] }))
	mustReject(t, edit(transport.KindSuperShare, 4, func(d []uint64) []uint64 { return append(d, 0) }))
}

func TestRejectsPaddingBits(t *testing.T) {
	// Top bit of a full word (bits 56–63 are padding) …
	mustReject(t, edit(transport.KindSuperShare, 1, func(d []uint64) []uint64 { d[0] |= 1 << 63; return d }))
	// … and an unused slot of the last word (identities 6 and 7 do not exist).
	mustReject(t, edit(transport.KindSuperShare, 1, func(d []uint64) []uint64 { d[1] |= 1 << 28; return d }))
}

func TestRejectsDuplicateSuperShare(t *testing.T) {
	// Party 0's super-share leaves from party 3's endpoint: coordinator 0
	// expects parties 0 and 3 and sees party 3 twice.
	mustReject(t, func(from, to int, m transport.Message) (int, int, transport.Message) {
		if from == 0 && m.Kind == transport.KindSuperShare {
			return 3, to, m
		}
		return from, to, m
	})
}

func TestRejectsUnassignedSuperShare(t *testing.T) {
	// Party 3's super-share leaves from party 1's endpoint: coordinator 0
	// expects parties 0 and 3 and sees party 1, which reports to
	// coordinator 1.
	mustReject(t, func(from, to int, m transport.Message) (int, int, transport.Message) {
		if from == 3 && m.Kind == transport.KindSuperShare {
			return 1, to, m
		}
		return from, to, m
	})
}

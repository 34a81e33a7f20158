package transport

import (
	"encoding/gob"
	"net"
	"testing"
)

// hello runs party j's side of one handshake over an in-process pipe: the
// dialer end gob-encodes msg, and acceptPeer reads it against seen.
func hello(t *testing.T, j int, seen []bool, msg Message) (int, error) {
	t.Helper()
	dialer, acceptor := net.Pipe()
	defer dialer.Close()
	defer acceptor.Close()
	go func() { _ = gob.NewEncoder(dialer).Encode(msg) }()
	from, pc, err := acceptPeer(acceptor, j, seen)
	if err == nil && pc == nil {
		t.Fatal("accepted hello without a connection")
	}
	return from, err
}

// A listener learns its dialer's id from the dialer's own hello, so the
// hello is checked before it indexes anything: the wrong kind, the wrong
// addressee, an id that does not dial j and an id already connected are
// all refused, and the refusals leave the seen set as it was.
func TestTCPHandshakeRefusesForgedHello(t *testing.T) {
	const j = 3
	seen := make([]bool, j)
	if from, err := hello(t, j, seen, Message{From: 0, To: j, Kind: KindControl}); err != nil || from != 0 {
		t.Fatalf("valid hello from 0: from %d, %v", from, err)
	}
	for name, msg := range map[string]Message{
		"wrong kind":     {From: 1, To: j, Kind: KindShare},
		"wrong receiver": {From: 1, To: j + 1, Kind: KindControl},
		"negative id":    {From: -1, To: j, Kind: KindControl},
		"id of j":        {From: j, To: j, Kind: KindControl},
		"higher id":      {From: 1 << 20, To: j, Kind: KindControl},
		"duplicate":      {From: 0, To: j, Kind: KindControl},
	} {
		if _, err := hello(t, j, seen, msg); err == nil {
			t.Errorf("%s: hello %+v accepted", name, msg)
		}
	}
	if seen[1] || seen[2] {
		t.Fatalf("a refused hello marked a peer: %v", seen)
	}
	if from, err := hello(t, j, seen, Message{From: 2, To: j, Kind: KindControl}); err != nil || from != 2 {
		t.Fatalf("valid hello from 2: from %d, %v", from, err)
	}
	dialer, acceptor := net.Pipe()
	go func() { _, _ = dialer.Write([]byte("not gob")); dialer.Close() }()
	if _, _, err := acceptPeer(acceptor, j, seen); err == nil {
		t.Error("undecodable hello accepted")
	}
	acceptor.Close()
}

// A reader delivers the peer of its connection as From, not the From the
// body carries: party 1 writes a body claiming to be party 2 straight onto
// its connection to party 0, bypassing Send's stamp, and party 0 still
// sees party 1. Receivers (secsum's sender check, gmw's ownership check)
// then test who sent a message, not what the sender wrote in it.
func TestTCPStampsFromWithConnectionPeer(t *testing.T) {
	network, err := NewTCP(3)
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	pc := network.nodes[1].conns[0]
	if err := pc.send(Message{From: 2, To: 0, Kind: KindShare, Seq: 7, Data: []uint64{42}}); err != nil {
		t.Fatal(err)
	}
	got, err := network.Node(0).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 1 || got.Seq != 7 || len(got.Data) != 1 || got.Data[0] != 42 {
		t.Fatalf("party 0 received %+v, want From 1 (the connection's peer), Seq 7, Data [42]", got)
	}
}

package transport

import (
	"errors"
	"testing"

	"repro/internal/metrics"
)

// collectorPair returns a 2-party in-memory network plus a collector on
// party 1's endpoint; party 0 is the sender.
func collectorPair(t *testing.T) (Node, *Collector, *InMemNetwork) {
	t.Helper()
	net, err := NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { net.Close() })
	return net.Node(0), NewCollector(net.Node(1)), net
}

func TestCollectorParksAndReplays(t *testing.T) {
	sender, coll, _ := collectorPair(t)
	// Out-of-profile messages arrive first; the wanted one last.
	if err := sender.Send(1, Message{Kind: KindControl, Seq: 9, Data: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(1, Message{Kind: KindShare, Seq: 2, Data: []uint64{2}}); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(1, Message{Kind: KindShare, Seq: 1, Data: []uint64{3}}); err != nil {
		t.Fatal(err)
	}

	m, err := coll.RecvKind(KindShare, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Data[0] != 3 {
		t.Fatalf("RecvKind(share,1) = %+v", m)
	}
	if coll.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 parked", coll.Pending())
	}
	// Parked messages replay without touching the wire.
	m, err = coll.RecvKind(KindControl, 9)
	if err != nil {
		t.Fatal(err)
	}
	if m.Data[0] != 1 {
		t.Fatalf("replayed message = %+v", m)
	}
	m, err = coll.RecvKind(KindShare, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Data[0] != 2 {
		t.Fatalf("replayed message = %+v", m)
	}
	if coll.Pending() != 0 {
		t.Fatalf("Pending = %d after draining", coll.Pending())
	}
}

func TestCollectorGatherMergesBySender(t *testing.T) {
	net, err := NewInMem(4)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	coll := NewCollector(net.Node(0))
	// Parties 1..3 each send one supershare, interleaved with noise.
	for id := 1; id < 4; id++ {
		if err := net.Node(id).Send(0, Message{Kind: KindControl, Seq: 7}); err != nil {
			t.Fatal(err)
		}
		if err := net.Node(id).Send(0, Message{Kind: KindSuperShare, Seq: 0, Data: []uint64{uint64(id)}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := coll.GatherKind(KindSuperShare, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("gathered %d messages, want 3", len(got))
	}
	for id := 1; id < 4; id++ {
		if got[id].Data[0] != uint64(id) {
			t.Fatalf("merge lost sender %d: %+v", id, got)
		}
	}
	// The noise messages stayed parked.
	if coll.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", coll.Pending())
	}
}

func TestCollectorGatherRejectsDuplicates(t *testing.T) {
	sender, coll, _ := collectorPair(t)
	for i := 0; i < 2; i++ {
		if err := sender.Send(1, Message{Kind: KindSuperShare, Seq: 0, Data: []uint64{9}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coll.GatherKind(KindSuperShare, 0, 2); err == nil {
		t.Fatal("duplicate sender accepted")
	}
}

func TestCollectorClosedNode(t *testing.T) {
	_, coll, net := collectorPair(t)
	net.Close()
	if _, err := coll.RecvKind(KindShare, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("RecvKind on closed node = %v, want ErrClosed", err)
	}
}

func TestNetworkInstrumentation(t *testing.T) {
	net, err := NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if RegistryOf(net) != nil {
		t.Fatal("uninstrumented network reported a registry")
	}
	reg := metrics.NewRegistry()
	if !Instrument(net, reg) {
		t.Fatal("Instrument refused an in-memory network")
	}
	if RegistryOf(net) != reg {
		t.Fatal("RegistryOf did not return the installed registry")
	}
	msg := Message{Kind: KindShare, Seq: 1, Data: []uint64{1, 2, 3}}
	if err := net.Node(0).Send(1, msg); err != nil {
		t.Fatal(err)
	}
	wantBytes := uint64(msg.wireSize())
	if got := reg.Counter("eppi_transport_messages_total", "").Value(); got != 1 {
		t.Fatalf("messages_total = %d, want 1", got)
	}
	if got := reg.Counter("eppi_transport_bytes_total", "").Value(); got != wantBytes {
		t.Fatalf("bytes_total = %d, want %d", got, wantBytes)
	}
	if got := reg.Counter("eppi_transport_kind_messages_total", "", metrics.L("kind", KindShare.String())).Value(); got != 1 {
		t.Fatalf("per-kind messages = %d, want 1", got)
	}
	// The legacy Stats() view must agree with the registry.
	if st := net.Stats(); st.Messages != 1 || st.Bytes != wantBytes {
		t.Fatalf("Stats = %+v, want {1 %d}", st, wantBytes)
	}
}

func TestFaultyNetworkForwardsMetrics(t *testing.T) {
	inner, err := NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	f := NewFaulty(inner, FaultPlan{})
	reg := metrics.NewRegistry()
	if !Instrument(f, reg) {
		t.Fatal("Instrument refused a faulty wrapper")
	}
	if RegistryOf(f) != reg {
		t.Fatal("faulty wrapper did not forward Metrics()")
	}
	if err := f.Node(0).Send(1, Message{Kind: KindOT}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("eppi_transport_messages_total", "").Value(); got != 1 {
		t.Fatalf("messages_total through wrapper = %d, want 1", got)
	}
}

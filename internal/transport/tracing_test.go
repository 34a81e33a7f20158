package transport

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// startSpan returns a live span from a throwaway tracer.
func startSpan(t *testing.T) (*trace.Tracer, *trace.Span) {
	t.Helper()
	tr := trace.New(2)
	_, sp := tr.StartRoot(context.Background(), "net")
	if sp == nil {
		t.Fatal("no root span")
	}
	return tr, sp
}

func TestSpanTrafficAttribution(t *testing.T) {
	net, err := NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	tr, sp := startSpan(t)
	AttachSpan(net, sp)
	msg := Message{Kind: KindGMWAnd, Data: []uint64{1, 2}}
	for i := 0; i < 3; i++ {
		if err := net.Node(0).Send(1, msg); err != nil {
			t.Fatal(err)
		}
	}
	sp.End()
	sealed := tr.Recent()[0].Root()
	if sealed.Messages != 3 {
		t.Errorf("span credited %d messages, want 3", sealed.Messages)
	}
	wantBytes := 3 * uint64(msg.wireSize())
	if sealed.Bytes != wantBytes {
		t.Errorf("span credited %d bytes, want %d", sealed.Bytes, wantBytes)
	}
	// Span attribution must agree with the network's own accounting.
	if st := net.Stats(); st.Bytes != wantBytes {
		t.Errorf("network counted %d bytes, want %d", st.Bytes, wantBytes)
	}
}

func TestWireSizeCoversTraceHeader(t *testing.T) {
	m := Message{Kind: KindShare, Data: make([]uint64, 5)}
	// 16-byte routing header (From, To, Kind, Seq) plus 8 bytes per
	// element.
	if got, want := m.wireSize(), 16+8*5; got != want {
		t.Fatalf("wireSize = %d, want %d", got, want)
	}
	empty := Message{Kind: KindControl}
	if got := empty.wireSize(); got != 16 {
		t.Fatalf("empty message wireSize = %d, want 16", got)
	}
}

func TestFaultyForwardsSpan(t *testing.T) {
	inner, err := NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	f := NewFaulty(inner, FaultPlan{})
	_, sp := startSpan(t)
	if !AttachSpan(f, sp) {
		t.Fatal("AttachSpan refused the faulty wrapper")
	}
	if SpanOf(f) != sp || SpanOf(inner) != sp {
		t.Fatal("faulty wrapper did not forward the span to the inner network")
	}
}

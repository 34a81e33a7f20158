package index

import (
	"context"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/trace"
)

func traceTestServer(tb testing.TB) *Server {
	tb.Helper()
	pub, err := bitmat.New(64, 4)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64; i += 3 {
		pub.Set(i, 0, true)
	}
	srv, err := NewServer(pub, []string{"a", "b", "c", "d"})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// TestQueryCtxUntracedAddsNoAllocs pins the disabled-tracing fast path:
// a spanless context must add zero allocations over the raw owner-row
// read (whose result slice is the only allocation either way).
func TestQueryCtxUntracedAddsNoAllocs(t *testing.T) {
	srv := traceTestServer(t)
	ctx := context.Background()
	base := testing.AllocsPerRun(200, func() {
		srv.owners.RowOnes(0)
	})
	traced := testing.AllocsPerRun(200, func() {
		if _, err := srv.QueryCtx(ctx, "a"); err != nil {
			t.Fatal(err)
		}
	})
	if traced != base {
		t.Fatalf("QueryCtx with tracing disabled allocates %v, raw scan allocates %v", traced, base)
	}
}

func TestQueryCtxRecordsSpan(t *testing.T) {
	srv := traceTestServer(t)
	tr := trace.New(2)
	ctx, root := tr.StartRoot(context.Background(), "op")
	if _, err := srv.QueryCtx(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.QueryCtx(ctx, "nobody"); err == nil {
		t.Fatal("unknown owner accepted")
	}
	root.End()
	spans := tr.Recent()[0].Spans
	var hit, miss bool
	for _, s := range spans {
		if s.Name != "index.query" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "fanout" {
				hit = true
			}
			if a.Key == "outcome" && a.Value == "unknown_owner" {
				miss = true
			}
		}
	}
	if !hit || !miss {
		t.Fatalf("index.query spans missing annotations (hit=%v miss=%v)", hit, miss)
	}
}

func BenchmarkQueryCtxUntraced(b *testing.B) {
	srv := traceTestServer(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := srv.QueryCtx(ctx, "a"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryCtxTraced(b *testing.B) {
	srv := traceTestServer(b)
	tr := trace.New(4)
	ctx, root := tr.StartRoot(context.Background(), "bench")
	defer root.End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := srv.QueryCtx(ctx, "a"); err != nil {
			b.Fatal(err)
		}
	}
}

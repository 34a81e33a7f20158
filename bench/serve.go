package main

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/trace"
)

// keyStream picks the owners a lookup asks for. Cold: every client takes
// the next owners of one seeded permutation of all n through a shared
// cursor, so an owner comes round again only after n − 1 others — far
// beyond the gateway's 4 096 entries. Hot: each client samples the first
// hotOwners of that permutation uniformly.
type keyStream struct {
	hot    bool
	perm   []int
	seed   int64
	cursor atomic.Int64
}

func newKeyStream(sp spec, seed int64) *keyStream {
	return &keyStream{hot: sp.hot, seed: seed, perm: rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(sp.owners)}
}

// picker returns one client's owner source; fill overwrites buf.
func (k *keyStream) picker(client int) func(buf []int) {
	if k.hot {
		rng := rand.New(rand.NewSource(k.seed + int64(client)*7919))
		hot := k.perm[:min(hotOwners, len(k.perm))]
		return func(buf []int) {
			for i := range buf {
				buf[i] = hot[rng.Intn(len(hot))]
			}
		}
	}
	return func(buf []int) {
		end := k.cursor.Add(int64(len(buf)))
		for i := range buf {
			buf[i] = k.perm[int(end-int64(len(buf))+int64(i))%len(k.perm)]
		}
	}
}

// lookupOne resolves owner j through c and checks the answer against the
// oracle: no error, exactly M' column j (which boot proved covers M column
// j), stamped with the epoch the fleet serves.
func (f *fleet) lookupOne(ctx context.Context, c *httpapi.Client, j int) bool {
	got, ep, err := c.QueryEpoch(ctx, f.data.Names[j])
	return err == nil && ep == f.epoch && slices.Equal(got, f.want[j])
}

// lookupBatch resolves owners in one POST and returns how many rows failed
// the same check.
func (f *fleet) lookupBatch(ctx context.Context, c *httpapi.Client, owners []int, names []string) (bad int) {
	for i, j := range owners {
		names[i] = f.data.Names[j]
	}
	rows, ep, err := c.QueryBatchEpoch(ctx, names)
	if err != nil || ep != f.epoch || len(rows) != len(owners) {
		return len(owners)
	}
	for i, j := range owners {
		r := rows[i]
		if !r.Found || r.Error != "" || r.Owner != names[i] || !slices.Equal(r.Providers, f.want[j]) {
			bad++
		}
	}
	return bad
}

// passResult is what one closed-loop pass measured.
type passResult struct {
	lat       []time.Duration // untraced request latencies, in sending order per client
	latTraced []time.Duration // latencies of requests sent under a span
	elapsed   time.Duration   // from the first request sent to the last answer checked
	attempted int             // owners asked for
	failed    int
}

// rate is the pass's throughput in owners per second.
func (p passResult) rate() float64 { return float64(p.attempted) / p.elapsed.Seconds() }

// pass drives clients closed-loop clients for dur: each sends its next
// request when the previous answer has been checked. batch = 1 sends
// GET /v1/query, otherwise POST /v1/query/batch with batch owners. With a
// tracer, each client's first 2 × tracedPerPass requests alternate in
// blocks of 8 between plain ones and ones under a per-request root span
// (which also makes the client stamp propagation headers), so one pass
// yields traced and untraced latencies side by side; the rest are plain.
func (f *fleet) pass(ctx context.Context, c *httpapi.Client, clients, batch int, dur time.Duration, tr *trace.Tracer) passResult {
	var (
		mu     sync.Mutex
		res    passResult
		wg     sync.WaitGroup
		begin  = time.Now()
		finish = begin.Add(dur)
	)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill := f.keys.picker(cl)
			owners := make([]int, batch)
			names := make([]string, batch)
			var lat, latTraced []time.Duration
			failed := 0
			for n := 0; ; n++ {
				t0 := time.Now()
				if !t0.Before(finish) {
					break
				}
				fill(owners)
				rctx, traced := ctx, tr != nil && n < 2*tracedPerPass && (n/8)%2 == 1
				var sp *trace.Span
				if traced {
					rctx, sp = tr.StartRoot(ctx, "client.lookup")
				}
				if batch > 1 {
					failed += f.lookupBatch(rctx, c, owners, names)
				} else if !f.lookupOne(rctx, c, owners[0]) {
					failed++
				}
				sp.End()
				if traced {
					latTraced = append(latTraced, time.Since(t0))
				} else {
					lat = append(lat, time.Since(t0))
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.latTraced = append(res.latTraced, latTraced...)
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(begin)
	res.attempted = (len(res.lat) + len(res.latTraced)) * batch
	return res
}

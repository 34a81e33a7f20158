package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/epoch"
	"repro/internal/gateway"
	"repro/internal/trace"
)

// result is one run of one workload.
type result struct {
	attempted, failed int
	endToEnd          map[string]float64
	perLayer          map[string]float64 // traced run only
	info              string             // context line, printed before the metrics
}

// runner carries what the phases of one run share.
type runner struct {
	sp      spec
	seconds float64
	tracer  *trace.Tracer // nil in the untraced run
	res     *result
	f       *fleet
}

// op times one operation of the harness; in a traced run it is one trace,
// whose root the layer spans hang under.
func (r *runner) op(ctx context.Context, name string, fn func(context.Context) error) (time.Duration, error) {
	// Every operation starts from a collected heap, so what one operation
	// left behind is not charged to whichever comes next.
	runtime.GC()
	var sp *trace.Span
	if r.tracer != nil {
		ctx, sp = r.tracer.StartRoot(ctx, name)
	}
	t0 := time.Now()
	err := fn(ctx)
	took := time.Since(t0)
	sp.End()
	r.res.attempted++
	if err != nil {
		return took, fmt.Errorf("%s: %w", name, err)
	}
	return took, nil
}

// gatewayCounts reads the gateway's own registry — the counters its
// /v1/metrics serves.
type gatewayCounts struct{ hits, misses, shed, upstream float64 }

func (f *fleet) gatewayCounts() gatewayCounts {
	return gatewayCounts{
		hits:     float64(f.gwReg.Counter("eppi_gateway_cache_hits_total", "").Value()),
		misses:   float64(f.gwReg.Counter("eppi_gateway_cache_misses_total", "").Value()),
		shed:     float64(f.gwReg.Counter("eppi_gateway_shed_total", "").Value()),
		upstream: float64(f.gwReg.Histogram("eppi_gateway_upstream_seconds", "", nil).Count()),
	}
}

func (a gatewayCounts) sub(b gatewayCounts) gatewayCounts {
	return gatewayCounts{a.hits - b.hits, a.misses - b.misses, a.shed - b.shed, a.upstream - b.upstream}
}

func (a gatewayCounts) hitShare() float64 {
	if a.hits+a.misses == 0 {
		return 0
	}
	return a.hits / (a.hits + a.misses)
}

func dirBytes(dir string) (total int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		total += info.Size()
		return err
	})
	return total, err
}

func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

const mb = 1 << 20

// run executes one workload once: set-up, the serve passes on epoch 1, the
// build repetitions on the live fleet, then a verification pass on the
// last epoch rolled out.
func run(ctx context.Context, sp spec, seed int64, secs float64, traced bool, tmp string) (*result, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	r := &runner{sp: sp, seconds: secs, res: &result{endToEnd: map[string]float64{}}}
	if traced {
		r.tracer = trace.New(traceCapacity)
		r.res.perLayer = map[string]float64{}
	}
	e2e := r.res.endToEnd
	r.res.info = fmt.Sprintf("workload %s seed %d seconds %g m %d n %d nproc %d GOMAXPROCS %d %s",
		sp.name, seed, secs, sp.providers, sp.owners, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	// Set-up: everything before the first timed phase, several times over.
	var boots []time.Duration
	defer func() { r.f.close() }()
	for i := 0; i < setupReps; i++ {
		r.f.close()
		d, err := r.op(ctx, "bench.boot", func(ctx context.Context) (err error) {
			r.f, err = boot(ctx, sp, seed, root)
			return err
		})
		if err != nil {
			return nil, err
		}
		boots = append(boots, d)
	}
	f := r.f
	e2e["setup_s"] = median(seconds(boots))
	e2e["search_cost"] = float64(f.pubPos) / float64(f.truePos)
	e2e["eps_met_share"] = f.report.SuccessRatio
	if f.report.SuccessRatio < gamma {
		return nil, fmt.Errorf("eps_met_share %.4f < γ = %g", f.report.SuccessRatio, gamma)
	}

	serving := time.Duration(secs * serveShare * float64(time.Second))
	sv, err := r.serve(ctx, serving)
	if err != nil {
		return nil, err
	}
	if err := r.build(ctx, time.Duration(secs*float64(time.Second))-serving); err != nil {
		return nil, err
	}

	size, err := dirBytes(epoch.Dir(f.pub.Root, f.epoch))
	if err != nil {
		return nil, err
	}
	e2e["epoch_disk_mb"] = float64(size) / mb
	// What the shard servers of one epoch hold once the files are gone.
	h0 := heapAlloc()
	_, srvs, dir, err := f.pull(ctx)
	if err != nil {
		return nil, err
	}
	_ = os.RemoveAll(dir)
	e2e["node_heap_mb"] = (heapAlloc() - h0) / mb
	runtime.KeepAlive(srvs)

	if err := r.verify(ctx); err != nil {
		return nil, err
	}
	if traced {
		r.layerMetrics(sv)
		if err := r.probes(ctx); err != nil {
			return nil, err
		}
		if err := writeTrace(filepath.Join(tmp, "trace-"+sp.name+".json"), r.tracer); err != nil {
			return nil, err
		}
		// A full ring has evicted its oldest traces (the boots) and a
		// dropped span is missing from a median: either way the per-layer
		// numbers would be silently wrong.
		if n, d := r.tracer.Len(), r.tracer.Dropped(); n >= traceCapacity || d > 0 {
			return nil, fmt.Errorf("trace ring holds %d of %d traces, %d spans dropped", n, traceCapacity, d)
		}
	}
	return r.res, nil
}

// served is what the serve rounds measured, warm-up rounds excluded.
type served struct {
	lat        []float64 // untraced 1-client request latencies, µs
	latTraced  []float64 // traced run: latencies of the requests sent under a span, µs
	latPaired  []float64 // traced run: the untraced requests sent between those, µs
	qps, batch []float64 // per round: owners per second of the nproc-client passes
	batchLat   []float64 // µs per batch request
	gateway    gatewayCounts

	multiOwners           int
	allocBytes, gcPauseNs uint64 // over the nproc-client passes (traced run)
	gcCycles              uint32
}

// serve runs the closed-loop rounds on the booted fleet: one client gives
// latency, nproc clients give capacity.
func (r *runner) serve(ctx context.Context, budget time.Duration) (*served, error) {
	f, sv, nproc := r.f, &served{}, runtime.NumCPU()
	length := budget / (3 * (warmRounds + serveRounds))
	var before gatewayCounts
	for i := 0; i < warmRounds+serveRounds; i++ {
		if i == warmRounds {
			before = f.gatewayCounts()
		}
		single := f.pass(ctx, f.client, 1, 1, length, r.tracer)
		var ms0, ms1 runtime.MemStats
		if r.tracer != nil {
			runtime.ReadMemStats(&ms0)
		}
		multi := f.pass(ctx, f.client, nproc, 1, length, nil)
		if r.tracer != nil {
			runtime.ReadMemStats(&ms1)
		}
		batch := f.pass(ctx, f.client, nproc, batchSize, length, nil)
		for _, p := range []passResult{single, multi, batch} {
			r.res.attempted += p.attempted
			r.res.failed += p.failed
		}
		if i < warmRounds {
			continue
		}
		lat := micros(single.lat)
		sv.lat = append(sv.lat, lat...)
		sv.latTraced = append(sv.latTraced, micros(single.latTraced)...)
		sv.latPaired = append(sv.latPaired, lat[:min(len(lat), len(single.latTraced))]...)
		sv.qps = append(sv.qps, multi.rate())
		sv.batch = append(sv.batch, batch.rate())
		sv.batchLat = append(sv.batchLat, micros(batch.lat)...)
		sv.multiOwners += multi.attempted
		sv.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		sv.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		sv.gcCycles += ms1.NumGC - ms0.NumGC
	}
	sv.gateway = f.gatewayCounts().sub(before)
	if err := r.guardServe(sv); err != nil {
		return nil, err
	}
	e2e := r.res.endToEnd
	e2e["lookup_p10_us"] = quantile(sv.lat, calmShare)
	e2e["lookup_qps"] = quantile(sv.qps, 1-calmShare)
	e2e["batch_owners_per_s"] = quantile(sv.batch, 1-calmShare)
	return sv, nil
}

// build runs the operator's cycle on the live fleet — construct, audit and
// publish, roll out — until budget is spent and at least minCycles times.
// The first cycle is a warm-up. Every construction must reproduce the M'
// the oracle was scanned from.
func (r *runner) build(ctx context.Context, budget time.Duration) error {
	f := r.f
	var construct, publish, rollout []time.Duration
	for begin := time.Now(); len(construct) < minCycles || time.Since(begin) < budget; {
		d, err := r.op(ctx, "bench.construct", func(ctx context.Context) error {
			res, err := f.construct(ctx, f.cfg)
			if err == nil && !res.Published.Equal(f.published.Published) {
				r.res.failed++
			}
			return err
		})
		if err != nil {
			return err
		}
		construct = append(construct, d)
		if d, err = r.op(ctx, "bench.publish", func(ctx context.Context) error {
			_, err := f.publish(ctx)
			return err
		}); err != nil {
			return err
		}
		publish = append(publish, d)
		for i := 0; i < rolloutsPerCycle; i++ {
			if _, err := r.op(ctx, "bench.rollout", func(ctx context.Context) error {
				d, err := f.rollout(ctx)
				rollout = append(rollout, d)
				return err
			}); err != nil {
				return err
			}
		}
	}
	e2e := r.res.endToEnd
	e2e["construct_s"] = median(seconds(construct[1:]))
	e2e["publish_s"] = median(seconds(publish[1:]))
	e2e["rollout_s"] = median(seconds(rollout[rolloutsPerCycle:]))
	return nil
}

// guardServe fails the run when the serve rounds did not measure what the
// workload is for, instead of printing a number.
func (r *runner) guardServe(sv *served) error {
	if sv.gateway.shed > 0 {
		return fmt.Errorf("gateway shed %g requests: the closed loop must stay below admission", sv.gateway.shed)
	}
	// A percentile needs samples behind it; the floor scales with the run
	// length (10 000 at the benchmark's 51 s).
	if floor := int(200 * r.seconds); len(sv.lat) < floor {
		return fmt.Errorf("lookup_p10_us rests on %d samples, want ≥ %d", len(sv.lat), floor)
	}
	share := sv.gateway.hitShare()
	switch {
	case r.sp.hot && share < 0.99:
		return fmt.Errorf("hot workload: gateway hit share %.4f < 0.99", share)
	case !r.sp.hot && r.sp.owners >= 2*gateway.DefaultCacheSize && share > 0.01:
		// Below 2 × cache a walk over all owners may not stay cold; only
		// the toy-scale test runs there.
		return fmt.Errorf("cold workload: gateway hit share %.4f > 0.01", share)
	}
	return nil
}

// verify closes every workload with verifyOps checked lookups against the
// last epoch rolled out. The gateway first has to see the new epoch (it
// learns it from any upstream answer; a cached answer is honestly stale
// until then), so the pass opens with lookups nothing has cached.
func (r *runner) verify(ctx context.Context) error {
	f := r.f
	fill := f.keys.picker(0)
	cold := fill
	if f.sp.hot {
		cold = (&keyStream{perm: f.keys.perm[min(hotOwners, len(f.keys.perm)-1):]}).picker(0)
	}
	one := make([]int, 1)
	for tries := 0; ; tries++ {
		cold(one)
		if _, ep, err := f.client.QueryEpoch(ctx, f.data.Names[one[0]]); err == nil && ep == f.epoch {
			break
		}
		if tries == 100 {
			return fmt.Errorf("gateway never reported epoch %d after rollout", f.epoch)
		}
		// Only an index smaller than the cache gets here: everything is
		// cached, and the gateway's health probe brings the new epoch.
		time.Sleep(50 * time.Millisecond)
	}
	for i := 0; i < verifyOps; i++ {
		fill(one)
		r.res.attempted++
		if !f.lookupOne(ctx, f.client, one[0]) {
			r.res.failed++
		}
	}
	return nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/circuit"
	"repro/internal/field"
	"repro/internal/gateway"
	"repro/internal/gmw"
	"repro/internal/index"
	"repro/internal/secretshare"
	"repro/internal/secsum"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/transport"
)

// spanMedian is the median duration, in seconds, of every recorded span
// with one of the names.
func spanMedian(traces []*trace.Trace, names ...string) float64 {
	var ds []float64
	for _, tr := range traces {
		for _, s := range tr.Spans {
			if slices.Contains(names, s.Name) {
				ds = append(ds, s.Duration().Seconds())
			}
		}
	}
	return median(ds)
}

// layerMetrics fills the per-layer rows that the run's own spans, samples
// and counters already hold.
func (r *runner) layerMetrics(sv *served) {
	f, out, e2e := r.f, r.res.perLayer, r.res.endToEnd
	traces := r.tracer.Recent()
	for metric, span := range map[string]string{
		"workload.generate_s":          "workload.GenerateZipf",
		"core.stage_s.beta_thresholds": "core.beta_thresholds",
		"core.stage_s.mixing":          "core.mixing",
		"core.stage_s.publish":         "core.publish",
		"privacy.compute_s":            "privacy.Compute",
		"epoch.publish_s":              "epoch.PublishWithReport",
		"replica.sync_s":               "replica.Mirror.Sync",
		"epoch.load_verify_s":          "epoch.LoadAt",
	} {
		out[metric] = spanMedian(traces, span)
	}
	// The per-identity frequencies are summed in the clear by a trusted
	// construction and as SecSumShare by a secure one.
	out["core.stage_s.aggregate"] = spanMedian(traces, "core.aggregate", "secsum.share")
	out["httpapi.swap_us"] = spanMedian(traces, "httpapi.Handler.Swap") * 1e6

	res := f.published
	out["core.cells_per_s"] = float64(f.sp.providers) * float64(f.sp.owners) / e2e["construct_s"]
	out["core.commons"] = float64(res.CommonCount)
	hidden := 0
	for _, h := range res.Hidden {
		if h {
			hidden++
		}
	}
	out["core.hidden"] = float64(hidden)
	for _, name := range []string{"core.secure_mpc_share", "core.secure_secsum_bytes", "core.secure_mpc_bytes",
		"core.secure_mpc_rounds", "core.secure_mpc_msgs", "gmw.and_instances_per_s"} {
		out[name] = 0
	}
	if s := res.Secure; s != nil {
		out["core.secure_mpc_share"] = s.MPCWall.Seconds() / f.built.Seconds()
		out["core.secure_secsum_bytes"] = float64(s.SecSum.Bytes)
		out["core.secure_mpc_bytes"] = float64(s.MPC.Bytes)
		out["core.secure_mpc_rounds"] = float64(s.MPCRounds)
		out["core.secure_mpc_msgs"] = float64(s.MPC.Messages)
		out["gmw.and_instances_per_s"] = float64(s.CountBelowCircuit.AndGates+s.RevealCircuit.AndGates) / s.MPCWall.Seconds()
	}
	out["privacy.violations"] = float64(f.report.ViolationCount)

	// Every Sync pulled the same epoch, so bytes per sync is the mirrors'
	// counter over their number.
	syncMB := float64(f.mirReg.Counter("eppi_replica_bytes_total", "").Value()) / float64(f.mirrors) / mb
	out["replica.sync_mb"] = syncMB
	out["replica.sync_mb_per_s"] = syncMB / out["replica.sync_s"]

	out["gateway.cache_hit_share"] = sv.gateway.hitShare()
	out["gateway.upstream_requests"] = sv.gateway.upstream
	out["client.lookup_p50_us"] = median(sv.lat)
	out["client.lookup_p99_us"] = quantile(sv.lat, 0.99)
	out["client.lookup_max_us"] = quantile(sv.lat, 1)
	out["client.batch_p50_us"] = median(sv.batchLat)
	out["go.alloc_bytes_per_lookup"] = float64(sv.allocBytes) / float64(sv.multiOwners)
	out["go.gc_cycles"] = float64(sv.gcCycles)
	out["go.gc_pause_ms"] = float64(sv.gcPauseNs) / 1e6
	out["bench.trace_overhead_share"] = quantile(sv.latTraced, calmShare)/quantile(sv.latPaired, calmShare) - 1
}

// timed returns fn's wall time in seconds.
func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// probes makes the direct calls into single layers that the plain run
// never makes. They run after every end-to-end number has been taken.
func (r *runner) probes(ctx context.Context) error {
	f, out := r.f, r.res.perLayer
	nproc := runtime.NumCPU()

	cfg := f.cfg
	cfg.Workers = 1
	w1, err := r.op(ctx, "probe.construct_w1", func(ctx context.Context) error {
		_, err := f.construct(ctx, cfg)
		return err
	})
	if err != nil {
		return err
	}
	out["core.construct_w1_s"] = w1.Seconds()
	out["core.parallel_speedup"] = w1.Seconds() / r.res.endToEnd["construct_s"]

	if err := r.mpcProbes(nproc); err != nil {
		return err
	}

	// Write side of the index layout: partition, encode, decode.
	var parts []*index.Server
	if out["shard.partition_s"], err = timed(func() (err error) {
		parts, err = shard.Partition(f.published.Published, f.data.Names, shardCount)
		return err
	}); err != nil {
		return err
	}
	var enc bytes.Buffer
	if out["index.encode_s"], err = timed(func() error {
		for _, p := range parts {
			if _, err := p.WriteTo(&enc); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	out["index.encode_mb"] = float64(enc.Len()) / mb
	rd := bytes.NewReader(enc.Bytes())
	if out["index.load_s"], err = timed(func() error {
		for range parts {
			if _, err := index.Read(rd); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	r.indexProbes(ctx)
	if err := r.nodeProbes(ctx); err != nil {
		return err
	}
	r.gatewayProbes(ctx)
	return nil
}

// mpcProbes times the MPC building blocks standalone, with the secure
// workload's parameters, on the run's own matrix cut to its first
// probeParties providers — all of it on the secure workload.
func (r *runner) mpcProbes(nproc int) error {
	f, out := r.f, r.res.perLayer
	cfg := constructConfig(spec{secure: true}, f.seed)
	m, n := min(f.sp.providers, probeParties), f.sp.owners
	// The share width core's wide path uses: bits(m+1) plus a sign bit.
	w := circuit.BitsNeeded(uint64(m+1)) + 1
	group, err := field.NewAdditive(1 << uint(w))
	if err != nil {
		return err
	}
	scheme, err := secretshare.New(group, cfg.C)
	if err != nil {
		return err
	}
	inputs := make([][]uint64, m)
	for i := range inputs {
		inputs[i] = make([]uint64, n)
		for j, set := range f.data.Matrix.Row(i) {
			if set {
				inputs[i][j] = 1
			}
		}
	}
	net, err := transport.NewInMem(m)
	if err != nil {
		return err
	}
	out["secsum.run_s"], err = timed(func() error {
		_, err := secsum.Run(net, scheme, inputs, f.seed)
		return err
	})
	_ = net.Close()
	if err != nil {
		return fmt.Errorf("secsum probe: %w", err)
	}

	const words = 1 << 18
	took, err := timed(func() error {
		_, err := gmw.GenTriplesWideSharded(f.seed, cfg.C, words, nproc)
		return err
	})
	if err != nil {
		return err
	}
	out["gmw.dealer_triple_words_per_s"] = words / took

	otWords := 1
	if !f.sp.otProbe {
		otWords = 0 // toy-scale test: the protocol set-up without the 10 s word
	}
	otNet, err := transport.NewInMem(cfg.C)
	if err != nil {
		return err
	}
	out["gmw.ot_triple_word_s"], err = timed(func() error {
		_, err := gmw.GenTriplesWideOT(otNet, otWords, f.seed)
		return err
	})
	_ = otNet.Close()
	if err != nil {
		return fmt.Errorf("OT probe: %w", err)
	}

	p := circuit.SliceParams{Parties: cfg.C, ShareBits: w, CoinBits: cfg.CoinBits, Arithmetic: cfg.Arithmetic}
	out["circuit.compile_s"], err = timed(func() error {
		if _, err := circuit.CountBelowSlice(p); err != nil {
			return err
		}
		_, err := circuit.RevealSlice(p)
		return err
	})
	return err
}

const (
	indexReads   = 50000
	probeBlocks  = 200
	probeParties = 512 // providers in the standalone SecSumShare probe
	// probeShare of the run's seconds goes to each of the two passes sent
	// straight at a node (2 s each at the benchmark's 51 s).
	probeShare = 0.04
)

// indexProbes reads columns straight from a served shard.
func (r *runner) indexProbes(ctx context.Context) {
	f, out := r.f, r.res.perLayer
	srv := f.servers[0]
	rng := rand.New(rand.NewSource(f.seed))
	reads := make([]time.Duration, indexReads)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range reads {
		j := rng.Intn(srv.Owners())
		t0 := time.Now()
		srv.QueryColumn(j)
		reads[i] = time.Since(t0)
	}
	runtime.ReadMemStats(&ms1)
	us := micros(reads)
	out["index.read_p50_us"] = median(us)
	out["index.read_p99_us"] = quantile(us, 0.99)
	out["index.read_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / indexReads

	names := srv.Names()
	owners := make([]string, batchSize)
	blocks := make([]float64, probeBlocks)
	for b := range blocks {
		for i := range owners {
			owners[i] = names[rng.Intn(len(names))]
		}
		t0 := time.Now()
		srv.QueryBatch(ctx, owners)
		blocks[b] = float64(time.Since(t0).Nanoseconds()) / 1e3 / batchSize
	}
	out["index.batch_owner_us"] = median(blocks)
}

// nodeProbes sends the client straight at shard 0's node, skipping the
// gateway: what is left of a cold lookup once the gateway hop is gone.
func (r *runner) nodeProbes(ctx context.Context) error {
	f, out := r.f, r.res.perLayer
	var mine []int // owners shard 0 serves
	for _, j := range f.keys.perm {
		if shard.For(f.data.Names[j], shardCount) == 0 {
			mine = append(mine, j)
		}
	}
	if len(mine) == 0 {
		return fmt.Errorf("shard 0 serves no owner")
	}
	tr := newTransport()
	defer tr.CloseIdleConnections()
	c := newClient(f.nodes[0].url, tr)
	direct := &fleet{sp: f.sp, data: f.data, want: f.want, epoch: f.epoch, keys: &keyStream{perm: mine}}
	dur := time.Duration(probeShare * r.seconds * float64(time.Second))
	single := direct.pass(ctx, c, 1, 1, dur, nil)
	batch := direct.pass(ctx, c, 1, batchSize, dur, nil)
	r.res.attempted += single.attempted + batch.attempted
	r.res.failed += single.failed + batch.failed
	out["httpapi.node_lookup_p10_us"] = quantile(micros(single.lat), calmShare)
	out["httpapi.node_batch_owner_us"] = quantile(micros(batch.lat), calmShare) / batchSize
	out["gateway.hop_p10_us"] = r.res.endToEnd["lookup_p10_us"] - out["httpapi.node_lookup_p10_us"]

	var total, count float64
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	for _, j := range mine[:min(probeBlocks, len(mine))] {
		resp, err := hc.Get(f.nodes[0].url + "/v1/query?owner=" + url.QueryEscape(f.data.Names[j]))
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		total += float64(n)
		count++
	}
	out["httpapi.response_bytes_mean"] = total / count
	return nil
}

// gatewayProbes times a cache hit with HTTP and JSON taken away: the
// gateway's Lookup called in-process on owners it has just cached.
func (r *runner) gatewayProbes(ctx context.Context) {
	f, out := r.f, r.res.perLayer
	hot := f.keys.perm[:min(hotOwners, len(f.keys.perm))]
	names := make([]string, len(hot))
	for i, j := range hot {
		names[i] = f.data.Names[j]
		_, _ = f.gw.Lookup(ctx, names[i])
	}
	rng := rand.New(rand.NewSource(f.seed))
	singles := make([]float64, probeBlocks)
	batches := make([]float64, probeBlocks)
	owners := make([]string, batchSize)
	var buf []gateway.BatchAnswer
	for b := 0; b < probeBlocks; b++ {
		for i := range owners {
			owners[i] = names[rng.Intn(len(names))]
		}
		t0 := time.Now()
		for _, o := range owners {
			_, _ = f.gw.Lookup(ctx, o)
		}
		singles[b] = float64(time.Since(t0).Nanoseconds()) / batchSize
		t0 = time.Now()
		buf = f.gw.LookupBatchInto(ctx, owners, buf)
		batches[b] = float64(time.Since(t0).Nanoseconds()) / batchSize
	}
	out["gateway.lookup_hit_ns"] = median(singles)
	out["gateway.batch_hit_owner_ns"] = median(batches)
}

// writeTrace writes every span of the run as Chrome trace-event JSON.
func writeTrace(path string, tr *trace.Tracer) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(out, tr.Recent()); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

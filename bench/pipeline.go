package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/gateway"
	"repro/internal/httpapi"
	"repro/internal/index"
	"repro/internal/logx"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/trace"
	"repro/internal/workload"
)

// layer runs fn inside a span named after the public function the harness
// is about to call. Without a span in ctx (the untraced run) it costs one
// context lookup.
func layer(ctx context.Context, name string, fn func(context.Context) error) error {
	ctx, sp := trace.StartChild(ctx, name)
	defer sp.End()
	return fn(ctx)
}

// node is one shard server: what cmd/eppi-serve builds at its flag
// defaults (metrics registry on, trace ring trace.DefaultCapacity, audit
// off), listening on its own loopback port.
type node struct {
	handler *httpapi.Handler
	http    *http.Server
	url     string
}

// fleet is the whole pipeline booted in this process over loopback
// sockets: origin, shardCount nodes, gateway, client.
type fleet struct {
	sp   spec
	seed int64
	dir  string // this boot's temp root (store + mirrors), removed by close

	data *workload.Dataset
	cfg  core.Config
	// want[j] is owner j's provider list scanned from M': the harness's own
	// oracle, independent of the index's column read. boot proves it covers
	// the list scanned from M.
	want      [][]int
	truePos   int // positives in M
	pubPos    int // positives in M'
	published *core.Result
	built     time.Duration // what constructing published took
	report    *privacy.Report

	logger    *slog.Logger
	pub       *epoch.Publisher
	origin    *http.Server
	orgURL    string
	nodes     []*node
	servers   []*index.Server // what the nodes serve now, by shard
	gw        *gateway.Gateway
	gwReg     *metrics.Registry
	mirReg    *metrics.Registry // the mirrors' replication counters
	gwHTTP    *http.Server
	gwURL     string
	transport *http.Transport
	client    *httpapi.Client
	mirrors   int // mirror roots created so far

	epoch uint64 // the epoch every node serves
	keys  *keyStream
}

// constructConfig is the construction every repetition runs. The seed is
// fixed per run, so every repetition yields the same M' and one oracle
// checks every epoch.
func constructConfig(sp spec, seed int64) core.Config {
	cfg := core.Config{Policy: mathx.PolicyChernoff, Gamma: gamma, Mode: core.ModeTrusted, Seed: seed}
	if sp.secure {
		cfg.Mode = core.ModeSecure
		cfg.C = 3
		cfg.Wide = true
		cfg.Arithmetic = circuit.StylePrefix
		cfg.CoinBits = 32
		cfg.BatchSize = 128
	}
	return cfg
}

func generate(ctx context.Context, sp spec, seed int64) (d *workload.Dataset, err error) {
	err = layer(ctx, "workload.GenerateZipf", func(context.Context) error {
		d, err = workload.GenerateZipf(workload.ZipfConfig{
			Providers: sp.providers, Owners: sp.owners,
			Exponent: zipfExponent, MaxFrequency: max(1, sp.providers/maxFreqDiv),
			EpsLow: epsLow, EpsHigh: epsHigh, Seed: seed,
		})
		return err
	})
	return d, err
}

// ownerLists scans a matrix row by row into per-owner provider lists.
func ownerLists(rows, cols int, row func(int) []bool) (lists [][]int, total int) {
	lists = make([][]int, cols)
	for i := 0; i < rows; i++ {
		for j, set := range row(i) {
			if set {
				lists[j] = append(lists[j], i)
				total++
			}
		}
	}
	return lists, total
}

// covers reports whether every provider of sub is in super (both sorted).
func covers(super, sub []int) bool {
	k := 0
	for _, p := range sub {
		for k < len(super) && super[k] < p {
			k++
		}
		if k == len(super) || super[k] != p {
			return false
		}
	}
	return true
}

// newRegistry is the registry each command builds when -metrics is on.
func newRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg)
	metrics.RegisterBuildInfo(reg)
	return reg
}

func listen(h http.Handler) (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	// The timeouts cmd/eppi-* set on their servers.
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(l) }() // returns when close() closes srv
	return srv, "http://" + l.Addr().String(), nil
}

// construct runs one construction under the harness span, so the core.*
// stage spans the program records nest beneath it.
func (f *fleet) construct(ctx context.Context, cfg core.Config) (res *core.Result, err error) {
	err = layer(ctx, "core.Construct", func(ctx context.Context) error {
		res, err = core.ConstructCtx(ctx, f.data.Matrix, f.data.Eps, cfg)
		return err
	})
	return res, err
}

// publish is what eppi-construct -epoch-dir does after construction: the
// ε audit, then partition, encode, fsync and the CURRENT flip.
func (f *fleet) publish(ctx context.Context) (uint64, error) {
	res := f.published
	var rep *privacy.Report
	var det *privacy.Detail
	err := layer(ctx, "privacy.Compute", func(context.Context) (err error) {
		rep, det, err = privacy.Compute(privacy.Input{
			Truth: f.data.Matrix, Published: res.Published, Names: f.data.Names, Eps: f.data.Eps,
			Thresholds: res.Thresholds, Hidden: res.Hidden,
			Policy: f.cfg.Policy.String(), Gamma: f.cfg.Gamma, Lambda: res.Lambda, Xi: res.Xi,
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	f.report = rep
	var n uint64
	err = layer(ctx, "epoch.PublishWithReport", func(context.Context) (err error) {
		n, err = f.pub.PublishWithReport(res.Published, f.data.Names, shardCount, rep, det)
		return err
	})
	return n, err
}

// pull replicates the origin's current epoch into a fresh mirror root and
// loads every shard from it — with no poll timer anywhere: Mirror.Run and
// epoch.Watcher jitter ±10 % by design, so the harness calls Sync and
// LoadAt itself. The servers hold their shards in memory; the caller
// removes root when it has stopped timing.
func (f *fleet) pull(ctx context.Context) (n uint64, srvs []*index.Server, root string, err error) {
	root = filepath.Join(f.dir, fmt.Sprintf("mirror-%04d", f.mirrors))
	f.mirrors++
	mir := &replica.Mirror{Origin: f.orgURL, Root: root, Registry: f.mirReg, Logger: f.logger}
	err = layer(ctx, "replica.Mirror.Sync", func(ctx context.Context) (err error) {
		n, err = mir.Sync(ctx)
		return err
	})
	srvs = make([]*index.Server, shardCount)
	for k := 0; k < shardCount && err == nil; k++ {
		err = layer(ctx, "epoch.LoadAt", func(context.Context) (err error) {
			srvs[k], err = epoch.LoadAt(root, n, k, shardCount)
			return err
		})
	}
	return n, srvs, root, err
}

// rollout is one flip-to-serving cycle on the live fleet: fresh mirror
// root → Sync → LoadAt every shard → Swap every node. It returns the time
// to the last Swap; deleting the mirror root is not part of it.
func (f *fleet) rollout(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	n, srvs, root, err := f.pull(ctx)
	defer os.RemoveAll(root)
	for k := 0; k < len(f.nodes) && err == nil; k++ {
		err = layer(ctx, "httpapi.Handler.Swap", func(context.Context) error {
			return f.nodes[k].handler.Swap(srvs[k])
		})
	}
	took := time.Since(t0)
	if err != nil {
		return took, err
	}
	for _, nd := range f.nodes {
		nd.handler.SetReport(f.report)
	}
	f.epoch, f.servers = n, srvs
	return took, nil
}

// boot brings a fleet from nothing to serving epoch 1 with warm caches.
// Its wall time is one setup_s sample.
func boot(ctx context.Context, sp spec, seed int64, tmp string) (f *fleet, err error) {
	f = &fleet{sp: sp, seed: seed, cfg: constructConfig(sp, seed)}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	if f.logger, err = logx.New(io.Discard, "info", "text"); err != nil {
		return f, err
	}
	if f.dir, err = os.MkdirTemp(tmp, "fleet-"); err != nil {
		return f, err
	}
	if f.data, err = generate(ctx, sp, seed); err != nil {
		return f, err
	}
	var truth [][]int
	truth, f.truePos = ownerLists(sp.providers, sp.owners, f.data.Matrix.Row)
	t0 := time.Now()
	if f.published, err = f.construct(ctx, f.cfg); err != nil {
		return f, err
	}
	f.built = time.Since(t0)
	f.want, f.pubPos = ownerLists(sp.providers, sp.owners, f.published.Published.Row)
	for j := range f.want {
		if !covers(f.want[j], truth[j]) {
			return f, fmt.Errorf("owner %d: M' misses a true provider (recall broken)", j)
		}
	}
	if fan := float64(f.pubPos) / float64(sp.owners); fan > float64(sp.providers)/10 {
		return f, fmt.Errorf("degenerate index: mean fan-out %.1f > m/10 = %d", fan, sp.providers/10)
	}

	f.pub = &epoch.Publisher{Root: filepath.Join(f.dir, "store")}
	if _, err = f.publish(ctx); err != nil {
		return f, err
	}
	// Origin, nodes and gateway as their commands build them at flag
	// defaults: registry on everywhere, trace rings on node and gateway.
	org := replica.NewOrigin(f.pub.Root, replica.WithOriginLogger(f.logger), replica.WithOriginMetrics(newRegistry()))
	if f.origin, f.orgURL, err = listen(org); err != nil {
		return f, err
	}
	f.mirReg = metrics.NewRegistry()
	n, srvs, mirror, err := f.pull(ctx)
	if err != nil {
		return f, err
	}
	if err = os.RemoveAll(mirror); err != nil {
		return f, err
	}
	f.epoch, f.servers = n, srvs
	var urls [][]string
	for _, srv := range srvs {
		h, err := httpapi.NewHandler(srv, httpapi.WithMetrics(newRegistry()), httpapi.WithTracer(trace.New(trace.DefaultCapacity)))
		if err != nil {
			return f, err
		}
		h.SetReport(f.report)
		nd := &node{handler: h}
		if nd.http, nd.url, err = listen(h); err != nil {
			return f, err
		}
		f.nodes = append(f.nodes, nd)
		urls = append(urls, []string{nd.url})
	}
	f.gwReg = newRegistry()
	f.gw, err = gateway.New(gateway.Config{
		Shards: urls, CacheSize: gateway.DefaultCacheSize,
		MaxInFlight: gateway.DefaultMaxInFlight, QueueWait: gateway.DefaultQueueWait,
		ProbePeriod: gateway.DefaultProbePeriod, HotWindow: time.Minute,
		Registry: f.gwReg, Tracer: trace.New(trace.DefaultCapacity), Logger: f.logger,
	})
	if err != nil {
		return f, err
	}
	if f.gwHTTP, f.gwURL, err = listen(f.gw); err != nil {
		return f, err
	}
	f.transport = newTransport()
	f.client = newClient(f.gwURL, f.transport)
	f.keys = newKeyStream(sp, seed)

	// Heap is shared with the serving side: drop what construction left
	// behind before anything is timed.
	runtime.GC()
	debug.FreeOSMemory()
	return f, f.warm(ctx)
}

// newTransport caps the searcher's side at nproc connections.
func newTransport() *http.Transport {
	nproc := runtime.NumCPU()
	return &http.Transport{MaxIdleConns: nproc, MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}
}

// newClient is the searcher's client. Retries are off so that a shed or
// failed request is counted, not hidden behind a second attempt.
func newClient(base string, tr *http.Transport) *httpapi.Client {
	return httpapi.NewClient(base, &http.Client{Transport: tr, Timeout: httpapi.DefaultTimeout}, httpapi.WithRetries(0))
}

// warm opens the client's connections with hotOwners lookups. On a hot
// workload they cover the hot set twice, so it is cached and the second
// pass hits; on a cold one they are the first steps of the walk, so the
// serve rounds never come back to them.
func (f *fleet) warm(ctx context.Context) error {
	fill, lookups := f.keys.picker(0), hotOwners
	if f.sp.hot {
		next := 0
		fill = func(buf []int) { buf[0], next = f.keys.perm[next%min(hotOwners, len(f.keys.perm))], next+1 }
		lookups = 2 * hotOwners
	}
	one := make([]int, 1)
	for i := 0; i < lookups; i++ {
		fill(one)
		if !f.lookupOne(ctx, f.client, one[0]) {
			return fmt.Errorf("warm-up lookup of owner %d failed", one[0])
		}
	}
	return nil
}

func (f *fleet) close() {
	if f == nil {
		return
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, s := range []*http.Server{f.gwHTTP, f.origin} {
		if s != nil {
			_ = s.Close()
		}
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, nd := range f.nodes {
		_ = nd.http.Close()
	}
	if f.dir != "" {
		_ = os.RemoveAll(f.dir)
	}
}

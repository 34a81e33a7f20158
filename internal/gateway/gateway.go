// Package gateway is the query-routing tier of the distributed ε-PPI
// serving architecture: a stateless front door over a fleet of
// column-shard index nodes (internal/shard served by eppi-serve -shard).
//
// A Lookup(owner) is routed to the one shard owning the identity under
// the stable hash (shard.For); a batch splits into one sub-batch per
// owning shard. On top of plain routing the gateway layers the techniques
// a locator service needs to face heavy traffic:
//
//   - response caching: an LRU over lookup results — the provider lists
//     as the node encoded them, written out again as they are — safe
//     because M' is public by construction: the Eq. 2 noise is fixed at
//     publication time, so a cached answer equals a fresh one until the
//     next index version. Concurrent misses on one owner are
//     deduplicated (singleflight) so a hot identity costs one upstream
//     request.
//   - hedged requests: when a lookup exceeds an adaptive latency
//     percentile of recent upstream calls, a second request is fired at
//     the next replica and the first answer wins — tail latency of a slow
//     or dying node stops defining the gateway's tail.
//   - health probing with failover: replicas are probed periodically;
//     lookups prefer healthy replicas and fall back through the rest.
//     A replica answering with the wrong shard identity is treated as
//     down (it would return wrong results, worse than none).
//   - load shedding: a bounded in-flight gate with a queue-wait deadline
//     turns overload into fast 503s instead of collapse.
//
// Everything reports through internal/metrics (cache hit/miss, hedges,
// sheds, per-replica health) and internal/trace (one root span per
// request, child spans per upstream attempt, trace ids propagated to
// shard nodes via the httpapi headers).
package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/httpapi"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Defaults for Config zero values.
const (
	DefaultCacheSize   = 4096
	DefaultMaxInFlight = 256
	DefaultQueueWait   = 100 * time.Millisecond
	DefaultProbePeriod = 2 * time.Second
	// defaultHedgeFloor/Ceil clamp the adaptive hedge trigger.
	defaultHedgeFloor = 2 * time.Millisecond
	defaultHedgeCeil  = time.Second
	// hedgePercentile is the latency quantile that arms the hedge.
	hedgePercentile = 0.95
)

// Config wires a Gateway.
type Config struct {
	// Shards lists, per shard id, the base URLs of the replicas serving
	// that shard. Every shard needs at least one replica.
	Shards [][]string
	// CacheSize is the response-cache capacity in entries; < 0 disables
	// caching, 0 means DefaultCacheSize.
	CacheSize int
	// MaxInFlight bounds concurrently admitted requests; 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// QueueWait is how long an arriving request may wait for admission
	// before being shed with a 503; 0 means DefaultQueueWait.
	QueueWait time.Duration
	// HedgeAfter fixes the hedge trigger delay. 0 selects the adaptive
	// trigger (the p95 of recent upstream latencies); < 0 disables
	// hedging.
	HedgeAfter time.Duration
	// ProbePeriod is the health-probe interval; 0 means
	// DefaultProbePeriod, < 0 disables probing (all replicas stay
	// trusted until a lookup fails through them).
	ProbePeriod time.Duration
	// Client is the upstream HTTP client shared by all shard clients; nil
	// builds one with httpapi.DefaultTimeout over a transport that keeps
	// MaxInFlight idle connections per replica.
	Client *http.Client
	// Registry receives gateway metrics; nil disables them.
	Registry *metrics.Registry
	// Tracer records gateway request traces; nil disables tracing.
	Tracer *trace.Tracer
	// Logger receives health-transition and shed logs; nil discards.
	Logger *slog.Logger
	// Audit, when non-nil, records every routed single and batched
	// lookup into the audit log (internal/audit), one entry per owner.
	// The gateway is the natural audit point: it sees the whole query
	// stream, cache hits included.
	Audit *audit.Sink
	// HotWindow and HotThreshold arm the hot-owner tracker: an owner
	// queried HotThreshold times within a halving-decay window is
	// flagged as a scanning suspect (eppi_audit_hot_owners, warn log).
	// Either zero disables tracking.
	HotWindow    time.Duration
	HotThreshold int
}

// Gateway routes locator queries across shard nodes. Create with New;
// Close stops the health prober.
type Gateway struct {
	shards  []*shardState
	cache   *cache
	flight  *flight
	gate    *gate
	lat     *latencyWindow
	hedge   time.Duration // fixed trigger; 0 = adaptive, -1 = disabled
	logger  *slog.Logger
	mw      httpapi.Middleware
	mux     *http.ServeMux
	inst    instruments
	sink    *audit.Sink
	hot     *audit.HotTracker
	probeWG sync.WaitGroup
	stop    context.CancelFunc
	// upstream is the transport New built when Config.Client was nil;
	// Close drops its idle connections.
	upstream *http.Transport
	// scratch pools batchScratch values.
	scratch sync.Pool

	// epoch is the highest publication epoch any upstream has reported.
	// It keys the response cache: advancing it orphans every entry of the
	// older epochs in one step.
	epoch atomic.Uint64
}

// instruments are the gateway's registry-backed counters. All fields
// no-op when nil (no registry).
type instruments struct {
	lookups     *metrics.Counter
	batchSize   *metrics.Histogram
	batchSubreq *metrics.Counter
	cacheHits   *metrics.Counter
	cacheMiss   *metrics.Counter
	hedges      *metrics.Counter
	hedgeWins   *metrics.Counter
	sheds       *metrics.Counter
	failovers   *metrics.Counter
	upstream    *metrics.Histogram
	inflightG   *metrics.Gauge
	cacheSizeG  *metrics.Gauge
	epochG      *metrics.Gauge // highest upstream-reported epoch
}

// New builds a gateway over cfg.Shards and starts its health prober.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("gateway: no shards configured")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	queueWait := cfg.QueueWait
	if queueWait <= 0 {
		queueWait = DefaultQueueWait
	}
	hedge := cfg.HedgeAfter
	if hedge < 0 {
		hedge = -1
	}
	g := &Gateway{
		cache:  newCache(cacheSize),
		flight: newFlight(),
		lat:    &latencyWindow{},
		hedge:  hedge,
		logger: logger,
		mw:     httpapi.Middleware{Tier: "Gateway", Registry: cfg.Registry, Tracer: cfg.Tracer},
		sink:   cfg.Audit,
		hot:    audit.NewHotTracker(cfg.HotWindow, cfg.HotThreshold, cfg.Registry, logger),
	}
	g.gate = newGate(maxInFlight, queueWait)
	g.scratch.New = func() any { return new(batchScratch) }
	client := cfg.Client
	if client == nil {
		replicas := 0
		for _, bases := range cfg.Shards {
			replicas += len(bases)
		}
		// An admitted request holds at most one connection to each
		// replica it reaches (two only while a hedge races), so keep
		// MaxInFlight idle per replica. http.DefaultTransport keeps two per
		// host: above two concurrent requests a replica's connections were
		// closed after each answer and dialed again for the next.
		g.upstream = http.DefaultTransport.(*http.Transport).Clone()
		g.upstream.MaxIdleConnsPerHost = maxInFlight
		g.upstream.MaxIdleConns = maxInFlight * replicas
		client = &http.Client{Transport: g.upstream, Timeout: httpapi.DefaultTimeout}
	}
	if reg := cfg.Registry; reg != nil {
		g.inst = instruments{
			lookups:     reg.Counter("eppi_gateway_lookups_total", "Lookups admitted by the gateway."),
			batchSize:   reg.Histogram("eppi_batch_size", "Owners per batched lookup request.", httpapi.BatchSizeBuckets),
			batchSubreq: reg.Counter("eppi_gateway_batch_subrequests_total", "Per-shard sub-batch requests fired by batched lookups (hedges and failover attempts included)."),
			cacheHits:   reg.Counter("eppi_gateway_cache_hits_total", "Lookups answered from the response cache."),
			cacheMiss:   reg.Counter("eppi_gateway_cache_misses_total", "Lookups that went upstream."),
			hedges:      reg.Counter("eppi_gateway_hedges_total", "Hedged (duplicate) upstream requests fired."),
			hedgeWins:   reg.Counter("eppi_gateway_hedge_wins_total", "Lookups answered by the hedge, not the primary."),
			sheds:       reg.Counter("eppi_gateway_shed_total", "Requests shed by the admission gate (503)."),
			failovers:   reg.Counter("eppi_gateway_failovers_total", "Lookups that fell over to a non-primary replica after a failure."),
			upstream:    reg.Histogram("eppi_gateway_upstream_seconds", "Upstream shard request latency.", metrics.DefDurationBuckets),
			inflightG:   reg.Gauge("eppi_gateway_inflight", "Requests currently admitted."),
			cacheSizeG:  reg.Gauge("eppi_gateway_cache_entries", "Live response-cache entries."),
			epochG:      reg.Gauge("eppi_gateway_epoch", "Highest publication epoch reported by any upstream shard."),
		}
		reg.OnCollect(func() { g.inst.cacheSizeG.Set(float64(g.cache.len())) })
		reg.Gauge("eppi_gateway_shards", "Shard count the gateway routes over.").Set(float64(len(cfg.Shards)))
	}
	for k, bases := range cfg.Shards {
		if len(bases) == 0 {
			return nil, fmt.Errorf("gateway: shard %d has no replicas", k)
		}
		st := &shardState{id: k}
		for i, base := range bases {
			r := &replica{base: base, client: httpapi.NewClient(base, client)}
			r.up.Store(true) // trusted until a probe or a lookup says otherwise
			r.upG = cfg.Registry.Gauge("eppi_gateway_replica_up",
				"1 when the replica answered its last health probe.",
				metrics.L("shard", replicaLabel(k)), metrics.L("replica", replicaLabel(i)))
			st.replicas = append(st.replicas, r)
		}
		g.shards = append(g.shards, st)
	}
	g.buildMux()
	probeCtx, stop := context.WithCancel(context.Background())
	g.stop = stop
	period := cfg.ProbePeriod
	if period == 0 {
		period = DefaultProbePeriod
	}
	if period > 0 {
		g.probeWG.Add(1)
		go g.probeLoop(probeCtx, period)
	}
	return g, nil
}

// Close stops the health prober and drops idle upstream connections.
// The handler keeps working (probing verdicts just freeze).
func (g *Gateway) Close() {
	g.stop()
	g.probeWG.Wait()
	if g.upstream != nil {
		g.upstream.CloseIdleConnections()
	}
}

// Shards returns the shard count the gateway routes over.
func (g *Gateway) Shards() int { return len(g.shards) }

// errAllReplicasFailed reports a lookup that exhausted every replica.
var errAllReplicasFailed = errors.New("gateway: all replicas failed")

// hedgeDelay returns the current hedge trigger, or -1 when hedging is
// disabled.
func (g *Gateway) hedgeDelay() time.Duration {
	if g.hedge > 0 || g.hedge == -1 {
		return g.hedge
	}
	d := g.lat.hedgeTrigger(50 * time.Millisecond)
	if d < defaultHedgeFloor {
		d = defaultHedgeFloor
	}
	if d > defaultHedgeCeil {
		d = defaultHedgeCeil
	}
	return d
}

// Lookup answers QueryPPI(owner) through cache, singleflight, routing,
// hedging and failover. It is the programmatic form of GET /v1/query.
func (g *Gateway) Lookup(ctx context.Context, owner string) ([]int, error) {
	res, _, err := g.lookup(ctx, owner)
	if err != nil {
		return nil, err
	}
	if res.notFound {
		return nil, fmt.Errorf("%w: %q", httpapi.ErrOwnerNotFound, owner)
	}
	return httpapi.DecodeProviders(res.providers), nil
}

// Epoch returns the highest publication epoch any upstream shard has
// reported to this gateway (0 before the first upstream answer, or for a
// pre-epoch fleet).
func (g *Gateway) Epoch() uint64 { return g.epoch.Load() }

// observeEpoch folds one upstream-reported epoch into the gateway's view
// (monotonic max). Advancing re-keys the cache — every entry of the older
// epoch, negatives included, becomes unreachable at once — and the
// now-dead entries are evicted so their LRU slots serve the new epoch.
func (g *Gateway) observeEpoch(e uint64) {
	for {
		cur := g.epoch.Load()
		if e <= cur {
			return
		}
		if g.epoch.CompareAndSwap(cur, e) {
			g.cache.purgeOtherEpochs(e)
			g.inst.epochG.Set(float64(e))
			g.logger.Info("fleet epoch advanced",
				slog.Uint64("from_epoch", cur), slog.Uint64("to_epoch", e))
			return
		}
	}
}

// lookup implements Lookup; cached reports whether the answer came from
// the response cache (for the span annotation and the handler's counters).
func (g *Gateway) lookup(ctx context.Context, owner string) (lookupResult, bool, error) {
	g.inst.lookups.Inc()
	epoch := g.epoch.Load()
	if res, ok := g.cache.get(epoch, owner); ok {
		g.inst.cacheHits.Inc()
		return res, true, nil
	}
	g.inst.cacheMiss.Inc()
	res, shared, err := g.flight.do(ctx, flightKey{epoch, owner}, func() (lookupResult, error) {
		res, err := g.fetch(ctx, owner)
		if err == nil {
			g.observeEpoch(res.epoch)
			// Key by the epoch that actually answered: mid-swap, a newer
			// upstream's answer must not be findable under the old epoch.
			g.cache.put(owner, res)
		}
		return res, err
	})
	// A shared result came from the leader's upstream call: it hit
	// neither this caller's cache nor upstream twice — report it as a
	// (deduplicated) miss, which the counters above already did.
	_ = shared
	return res, false, err
}

// fetch resolves one owner upstream: route to the owning shard, try its
// candidate replicas with hedging, fail over on errors.
func (g *Gateway) fetch(ctx context.Context, owner string) (lookupResult, error) {
	k := shard.For(owner, len(g.shards))
	ctx, sp := trace.StartChild(ctx, "gateway.fetch")
	sp.SetInt("shard", k)
	defer sp.End()

	candidates := g.shards[k].candidates()
	res, winner, hedged, err := raceReplicas(g, ctx, candidates,
		func(ctx context.Context, r *replica, asp *trace.Span) (lookupResult, error) {
			providers, epoch, err := r.client.QueryRaw(ctx, owner)
			asp.SetUint("epoch", epoch)
			switch {
			case err == nil:
				return lookupResult{providers: providers, epoch: epoch}, nil
			case errors.Is(err, httpapi.ErrOwnerNotFound):
				// A 404 is a definitive, epoch-attributed answer too: "this
				// owner is absent from epoch N" may stop holding at N+1.
				return lookupResult{notFound: true, epoch: epoch}, nil
			default:
				return lookupResult{}, err
			}
		})
	if err != nil {
		sp.Set("error", err.Error())
		return lookupResult{}, err
	}
	if winner > 0 {
		g.inst.failovers.Inc()
	}
	sp.SetInt("winner_replica", winner)
	sp.Set("hedged", strconv.FormatBool(hedged))
	return res, nil
}

// raceReplicas tries candidates in order: the first is fired immediately,
// the next when the hedge delay elapses without an answer or the previous
// attempt fails. The first definitive answer wins; remaining attempts are
// cancelled. attempt resolves one replica under a "gateway.upstream" span
// and must return definitive negatives (a 404) as values, not errors —
// an error falls through to the next replica. Both the single-owner and
// the batched lookup path race through here, so hedging, failover and
// the upstream latency instruments behave identically for both.
func raceReplicas[T any](g *Gateway, ctx context.Context, candidates []*replica,
	attempt func(context.Context, *replica, *trace.Span) (T, error)) (T, int, bool, error) {
	type outcome struct {
		res T
		err error
		idx int
	}
	var zero T
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan outcome, len(candidates))
	launch := func(idx int) {
		r := candidates[idx]
		go func() {
			_, sp := trace.StartChild(raceCtx, "gateway.upstream")
			sp.Set("replica", r.base)
			sp.SetInt("attempt", idx)
			start := time.Now()
			res, err := attempt(raceCtx, r, sp)
			elapsed := time.Since(start)
			g.inst.upstream.Observe(elapsed.Seconds())
			if err == nil {
				g.lat.observe(elapsed)
			} else {
				sp.Set("error", err.Error())
			}
			sp.End()
			results <- outcome{res: res, err: err, idx: idx}
		}()
	}

	launch(0)
	inFlight := 1
	next := 1
	hedged := false
	var firstErr error
	var hedgeC <-chan time.Time
	// Only a second candidate can take a hedge: a lone replica does not
	// even read the trigger.
	if next < len(candidates) {
		if hedge := g.hedgeDelay(); hedge > 0 {
			timer := time.NewTimer(hedge)
			hedgeC = timer.C
			defer timer.Stop()
		}
	}
	for {
		select {
		case <-ctx.Done():
			return zero, 0, hedged, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if next < len(candidates) {
				g.inst.hedges.Inc()
				hedged = true
				launch(next)
				next++
				inFlight++
			}
		case out := <-results:
			if out.err == nil {
				if hedged && out.idx > 0 {
					g.inst.hedgeWins.Inc()
				}
				return out.res, out.idx, hedged, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			inFlight--
			// An attempt failed: immediately try the next replica (don't
			// wait for the hedge timer — failure is a stronger signal).
			if next < len(candidates) {
				launch(next)
				next++
				inFlight++
			} else if inFlight == 0 {
				return zero, 0, hedged, fmt.Errorf("%w (%d tried): %v", errAllReplicasFailed, len(candidates), firstErr)
			}
		}
	}
}

// BatchAnswer is one per-owner outcome of a batched gateway lookup.
type BatchAnswer struct {
	// Owner is the queried identity, echoed back.
	Owner string
	// Found and Providers mirror a single Lookup: Found false means the
	// owning shard authoritatively does not know the owner.
	Found     bool
	Providers []int
	// Epoch is the publication epoch of the answer. A cache hit reports
	// the epoch it was fetched under, exactly like a single lookup would.
	Epoch uint64
	// Cached reports whether the row was served from the response cache.
	// Rows with Cached false that share a shard came from one sub-batch
	// request, hence one snapshot: their Epochs are always equal.
	Cached bool
	// Err is set when the owning shard could not answer (every replica
	// failed). Partial shard failures surface here per owner — the other
	// rows of the batch are unaffected.
	Err error

	// raw is the provider list as the node encoded it (nil with Err);
	// the handler writes it out and LookupBatchInto decodes it.
	raw []byte
}

// LookupBatch resolves many owners in one pass: cache hits are served
// without touching upstreams, the misses are grouped by owning shard
// (duplicates collapse), one sub-batch request per shard is fired
// concurrently through the same hedging/failover race as single lookups,
// shard failures degrade to per-owner errors, and every batch answer
// back-fills the (epoch, owner) response cache. Answers are
// position-matched to owners. It is the programmatic form of
// POST /v1/query/batch.
func (g *Gateway) LookupBatch(ctx context.Context, owners []string) []BatchAnswer {
	return g.LookupBatchInto(ctx, owners, nil)
}

// LookupBatchInto is LookupBatch resolving into buf's backing storage, so
// a caller looping over batches (the benchmark, a bulk re-resolver) does
// not feed the garbage collector one answer slice per call — at warm
// batch rates the GC assists otherwise dominate the tail. buf is grown
// when too small; the returned slice is the answer, always len(owners).
// Each row's Providers is decoded from the bytes the handler forwards.
func (g *Gateway) LookupBatchInto(ctx context.Context, owners []string, buf []BatchAnswer) []BatchAnswer {
	sc := g.scratch.Get().(*batchScratch)
	defer g.putScratch(sc)
	answers := g.lookupBatch(ctx, owners, buf, sc)
	for i := range answers {
		if a := &answers[i]; a.raw != nil {
			a.Providers = httpapi.DecodeProviders(a.raw)
		}
	}
	return answers
}

// batchScratch is one batch's working memory, pooled so that routing and
// merging a batch allocate nothing per owner.
type batchScratch struct {
	answers []BatchAnswer // the handler's answer rows
	hashes  []uint64      // ownerHash per position
	// first maps a miss position to the position whose upstream row
	// answers it: itself, or the first earlier position of the same owner.
	first []int32
	dedup []int32 // open-addressed miss positions + 1, probed by hash
	// pos[k] lists the positions shard k answers, in the order of its
	// sub-batch request owners[k]; a node answers in request order, so
	// row r of shard k answers position pos[k][r].
	pos [][]int32
	// owners[k] is shard k's sub-batch. Its backing array is fresh per
	// batch, never pooled: a losing hedge attempt may still be checking
	// its rows against it after the batch has returned.
	owners [][]string
	outs   []shardOut
	wg     sync.WaitGroup // the sub-batch fetches in flight
	puts   []cachePut
}

// shardOut is one shard's answer to its sub-batch.
type shardOut struct {
	rows  *httpapi.RawBatch
	epoch uint64
	err   error
}

// reset sizes the scratch for n owners over shards shards.
func (sc *batchScratch) reset(n, shards int) {
	sc.hashes = slices.Grow(sc.hashes[:0], n)[:n]
	sc.first = slices.Grow(sc.first[:0], n)[:n]
	size := 2
	for size < 2*n {
		size *= 2
	}
	sc.dedup = slices.Grow(sc.dedup[:0], size)[:size]
	clear(sc.dedup)
	if len(sc.pos) != shards {
		sc.pos = make([][]int32, shards)
		sc.owners = make([][]string, shards)
		sc.outs = make([]shardOut, shards)
	}
	for k := range sc.pos {
		sc.pos[k] = sc.pos[k][:0]
	}
	sc.puts = sc.puts[:0]
}

// putScratch pools sc, dropping its references into the batch first.
func (g *Gateway) putScratch(sc *batchScratch) {
	clear(sc.answers)
	clear(sc.owners)
	clear(sc.outs)
	clear(sc.puts)
	g.scratch.Put(sc)
}

// firstOf returns the first miss position holding owners[i]'s owner,
// entering i when it is the first.
func (sc *batchScratch) firstOf(owners []string, i int) int32 {
	mask := uint64(len(sc.dedup) - 1)
	for t := sc.hashes[i] & mask; ; t = (t + 1) & mask {
		j := sc.dedup[t] - 1
		if j < 0 {
			sc.dedup[t] = int32(i) + 1
			return int32(i)
		}
		if sc.hashes[j] == sc.hashes[i] && owners[j] == owners[i] {
			return j
		}
	}
}

// lookupBatch is LookupBatchInto without the decode, working in sc: rows
// carry raw, and Providers stays nil.
func (g *Gateway) lookupBatch(ctx context.Context, owners []string, buf []BatchAnswer, sc *batchScratch) []BatchAnswer {
	ctx, sp := trace.StartChild(ctx, "gateway.batch")
	sp.SetInt("batch_size", len(owners))
	defer sp.End()
	g.inst.lookups.Add(uint64(len(owners)))
	g.inst.batchSize.Observe(float64(len(owners)))
	var answers []BatchAnswer
	if cap(buf) >= len(owners) {
		answers = buf[:len(owners)]
		// The merge path below distinguishes misses by the Cached flag, so
		// flags left over from the buffer's previous life must be reset.
		// Every row is then assigned whole — hits by the cache pass, misses
		// by the merge — so nothing else stale is ever read.
		for i := range answers {
			answers[i].Cached = false
		}
	} else {
		answers = make([]BatchAnswer, len(owners))
	}
	sc.reset(len(owners), len(g.shards))
	for i, owner := range owners {
		sc.hashes[i] = ownerHash(owner)
	}

	// Cache pass: one lock acquisition and one epoch load for the whole
	// batch — the warm path is why batching pays. The Cached flag doubles
	// as the hit marker: an unresolved row keeps Cached false.
	hits := g.cache.getBatch(g.epoch.Load(), owners, sc.hashes, answers)
	g.inst.cacheHits.Add(uint64(hits))
	g.inst.cacheMiss.Add(uint64(len(owners) - hits))
	sp.SetInt("cache_hits", hits)
	if hits == len(owners) {
		return answers
	}

	// Route the misses: each distinct owner joins its shard's sub-batch
	// once, and a repeat is answered from its first position.
	distinct := 0
	for i := range answers {
		if answers[i].Cached {
			continue
		}
		if sc.first[i] = sc.firstOf(owners, i); sc.first[i] != int32(i) {
			continue
		}
		k := shard.For(owners[i], len(g.shards))
		sc.pos[k] = append(sc.pos[k], int32(i))
		distinct++
	}
	sub := make([]string, 0, distinct)
	for k, pos := range sc.pos {
		start := len(sub)
		for _, i := range pos {
			sub = append(sub, owners[i])
		}
		sc.owners[k] = sub[start:len(sub):len(sub)]
	}
	for k := range sc.owners {
		if len(sc.owners[k]) > 0 {
			sc.wg.Add(1)
			go g.fetchInto(ctx, k, sc)
		}
	}
	sc.wg.Wait()

	// Merge the sub-batches by position: shard failures become per-owner
	// errors, and successful rows back-fill the cache under the epoch
	// that answered them (mid-swap, a newer shard's rows must not be
	// findable under the old epoch — same rule as single lookups).
	var maxEpoch uint64
	failedShards := 0
	for k, pos := range sc.pos {
		if len(pos) == 0 {
			continue
		}
		out := &sc.outs[k]
		if out.err != nil {
			failedShards++
			err := fmt.Errorf("shard %d: %w", k, out.err)
			for _, i := range pos {
				answers[i] = BatchAnswer{Owner: owners[i], Err: err}
			}
			continue
		}
		maxEpoch = max(maxEpoch, out.epoch)
		for r, i := range pos {
			if r >= out.rows.Len() {
				// Defensive: a shard answered its sub-batch but dropped rows.
				answers[i] = BatchAnswer{Owner: owners[i],
					Err: fmt.Errorf("gateway: shard %d returned no row for %q", k, owners[i])}
				continue
			}
			found, providers := out.rows.Row(r)
			raw := httpapi.CloneProviders(providers) // the cache and the answer share it
			answers[i] = BatchAnswer{Owner: owners[i], Found: found, Epoch: out.epoch, raw: raw}
			sc.puts = append(sc.puts, cachePut{owner: owners[i], hash: sc.hashes[i],
				val: lookupResult{providers: raw, notFound: !found, epoch: out.epoch}})
		}
		out.rows.Release()
	}
	g.observeEpoch(maxEpoch)
	g.cache.putBatch(sc.puts)
	for i := range answers {
		if j := sc.first[i]; !answers[i].Cached && j != int32(i) {
			answers[i] = answers[j]
		}
	}
	if failedShards > 0 {
		sp.SetInt("failed_shards", failedShards)
	}
	return answers
}

// fetchInto resolves shard k's sub-batch of a batch into sc.outs[k].
func (g *Gateway) fetchInto(ctx context.Context, k int, sc *batchScratch) {
	defer sc.wg.Done()
	out := &sc.outs[k]
	out.rows, out.epoch, out.err = g.fetchBatch(ctx, k, sc.owners[k])
}

// fetchBatch resolves one shard's sub-batch upstream through the same
// replica race (hedging, failover) as single-owner fetches.
func (g *Gateway) fetchBatch(ctx context.Context, k int, owners []string) (*httpapi.RawBatch, uint64, error) {
	ctx, sp := trace.StartChild(ctx, "gateway.batch_shard")
	sp.SetInt("shard", k)
	sp.SetInt("sub_batch", len(owners))
	defer sp.End()
	type batchOut struct {
		rows  *httpapi.RawBatch
		epoch uint64
	}
	candidates := g.shards[k].candidates()
	out, winner, hedged, err := raceReplicas(g, ctx, candidates,
		func(ctx context.Context, r *replica, asp *trace.Span) (batchOut, error) {
			g.inst.batchSubreq.Inc()
			rows, epoch, err := r.client.QueryBatchRaw(ctx, owners)
			asp.SetUint("epoch", epoch)
			if err != nil {
				return batchOut{}, err
			}
			return batchOut{rows: rows, epoch: epoch}, nil
		})
	if err != nil {
		sp.Set("error", err.Error())
		return nil, 0, err
	}
	if winner > 0 {
		g.inst.failovers.Inc()
	}
	sp.SetInt("winner_replica", winner)
	sp.Set("hedged", strconv.FormatBool(hedged))
	return out.rows, out.epoch, nil
}

// PrivacyAggregate is the gateway's fleet-wide /v1/privacy payload.
// Every shard of one epoch serves the same full-index report (the
// publisher audits the whole matrix, each shard carries a copy), so
// the aggregate is the newest report seen plus a per-shard epoch map
// that shows whether the fleet agrees.
type PrivacyAggregate struct {
	// Status: "ok" (every shard served the same report epoch),
	// "mixed" (shards answered from different epochs — fleet mid-swap),
	// "degraded" (some shard had no report or was unreachable).
	Status string `json:"status"`
	// Epochs is the report epoch each shard answered with; 0 = none.
	Epochs []uint64 `json:"epochs"`
	// HotOwners lists owners currently flagged by the gateway's
	// hot-query tracker — live scanning suspects.
	HotOwners []string `json:"hot_owners,omitempty"`
	// Report is the newest verified report across the fleet.
	Report *privacy.Report `json:"report,omitempty"`
}

// AggregatePrivacy fetches and verifies the privacy report from one
// answering replica per shard and folds them into the fleet view.
func (g *Gateway) AggregatePrivacy(ctx context.Context) PrivacyAggregate {
	ctx, sp := trace.StartChild(ctx, "gateway.privacy_fanout")
	defer sp.End()
	out := PrivacyAggregate{Status: "ok", Epochs: make([]uint64, len(g.shards))}
	type shardOut struct {
		rep *privacy.Report
		ok  bool
	}
	outs := make([]shardOut, len(g.shards))
	var wg sync.WaitGroup
	for k, st := range g.shards {
		wg.Add(1)
		go func(k int, st *shardState) {
			defer wg.Done()
			for _, r := range st.candidates() {
				rep, err := r.client.Privacy(ctx)
				if err == nil {
					outs[k] = shardOut{rep: rep, ok: true}
					return
				}
				if errors.Is(err, httpapi.ErrNoPrivacyReport) {
					// Authoritative: this epoch has no report. Trying
					// another replica of the same shard won't change that.
					return
				}
			}
		}(k, st)
	}
	wg.Wait()
	var newest *privacy.Report
	for k, so := range outs {
		if !so.ok {
			out.Status = "degraded"
			continue
		}
		out.Epochs[k] = so.rep.Epoch
		if newest == nil || so.rep.Epoch > newest.Epoch {
			newest = so.rep
		}
	}
	if out.Status == "ok" {
		for _, e := range out.Epochs {
			if e != out.Epochs[0] {
				out.Status = "mixed"
				break
			}
		}
	}
	out.Report = newest
	out.HotOwners = g.hot.HotOwners()
	sp.Set("status", out.Status)
	return out
}

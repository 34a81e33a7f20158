// Package gateway is the query-routing tier of the distributed ε-PPI
// serving architecture: a stateless front door over a fleet of
// column-shard index nodes (internal/shard served by eppi-serve -shard).
//
// A Lookup(owner) is routed to the one shard owning the identity under
// the stable hash (shard.For); a Search fans out to every shard and
// merges. On top of plain routing the gateway layers the techniques a
// locator service needs to face heavy traffic:
//
//   - response caching: an LRU over lookup results, safe because M' is
//     public by construction — the Eq. 2 noise is fixed at publication
//     time, so a cached answer equals a fresh one until the next index
//     version. Concurrent misses on one owner are deduplicated
//     (singleflight) so a hot identity costs one upstream request.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/httpapi"
	"repro/internal/index"
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
	// CacheTTL expires cache entries by age. Epoch-keyed invalidation is
	// the primary freshness mechanism; the TTL is the safety net for
	// deployments that never publish a new epoch. 0 disables expiry.
	CacheTTL time.Duration
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
	// uses the httpapi default (DefaultTimeout, retries on).
	Client *http.Client
	// Registry receives gateway metrics; nil disables them.
	Registry *metrics.Registry
	// Tracer records gateway request traces; nil disables tracing.
	Tracer *trace.Tracer
	// Logger receives health-transition and shed logs; nil discards.
	Logger *slog.Logger
	// Audit, when non-nil, records every routed query and search into
	// the audit log (internal/audit). The gateway is the natural audit
	// point: it sees the whole query stream, cache hits included.
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
	tracer  *trace.Tracer
	reg     *metrics.Registry
	logger  *slog.Logger
	mux     *http.ServeMux
	inst    instruments
	sink    *audit.Sink
	hot     *audit.HotTracker
	probeWG sync.WaitGroup
	stop    context.CancelFunc

	// epoch is the highest publication epoch any upstream has reported.
	// It keys the response cache: advancing it orphans every entry of the
	// older epochs in one step.
	epoch atomic.Uint64
}

// instruments are the gateway's registry-backed counters. All fields
// no-op when nil (no registry).
type instruments struct {
	lookups     *metrics.Counter
	searches    *metrics.Counter
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
	skewG       *metrics.Gauge // epoch spread across shards, last fan-out
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
		cache:  newCache(cacheSize, cfg.CacheTTL),
		flight: newFlight(),
		lat:    &latencyWindow{},
		hedge:  hedge,
		tracer: cfg.Tracer,
		reg:    cfg.Registry,
		logger: logger,
		sink:   cfg.Audit,
		hot:    audit.NewHotTracker(cfg.HotWindow, cfg.HotThreshold, cfg.Registry, logger),
	}
	g.gate = newGate(maxInFlight, queueWait)
	if g.reg != nil {
		g.inst = instruments{
			lookups:     g.reg.Counter("eppi_gateway_lookups_total", "Lookups admitted by the gateway."),
			searches:    g.reg.Counter("eppi_gateway_searches_total", "Fan-out searches admitted by the gateway."),
			batchSize:   g.reg.Histogram("eppi_batch_size", "Owners per batched lookup request.", httpapi.BatchSizeBuckets),
			batchSubreq: g.reg.Counter("eppi_gateway_batch_subrequests_total", "Per-shard sub-batch requests fired by batched lookups (hedges and failover attempts included)."),
			cacheHits:   g.reg.Counter("eppi_gateway_cache_hits_total", "Lookups answered from the response cache."),
			cacheMiss:   g.reg.Counter("eppi_gateway_cache_misses_total", "Lookups that went upstream."),
			hedges:      g.reg.Counter("eppi_gateway_hedges_total", "Hedged (duplicate) upstream requests fired."),
			hedgeWins:   g.reg.Counter("eppi_gateway_hedge_wins_total", "Lookups answered by the hedge, not the primary."),
			sheds:       g.reg.Counter("eppi_gateway_shed_total", "Requests shed by the admission gate (503)."),
			failovers:   g.reg.Counter("eppi_gateway_failovers_total", "Lookups that fell over to a non-primary replica after a failure."),
			upstream:    g.reg.Histogram("eppi_gateway_upstream_seconds", "Upstream shard request latency.", metrics.DefDurationBuckets),
			inflightG:   g.reg.Gauge("eppi_gateway_inflight", "Requests currently admitted."),
			cacheSizeG:  g.reg.Gauge("eppi_gateway_cache_entries", "Live response-cache entries."),
			epochG:      g.reg.Gauge("eppi_gateway_epoch", "Highest publication epoch reported by any upstream shard."),
			skewG:       g.reg.Gauge("eppi_gateway_epoch_skew", "Epoch spread (max-min) across shards in the last fan-out search; 0 when the fleet agrees."),
		}
		g.reg.OnCollect(func() { g.inst.cacheSizeG.Set(float64(g.cache.len())) })
		g.reg.Gauge("eppi_gateway_shards", "Shard count the gateway routes over.").Set(float64(len(cfg.Shards)))
	}
	for k, bases := range cfg.Shards {
		if len(bases) == 0 {
			return nil, fmt.Errorf("gateway: shard %d has no replicas", k)
		}
		st := &shardState{id: k}
		for i, base := range bases {
			r := &replica{base: base, client: httpapi.NewClient(base, cfg.Client)}
			r.up.Store(true) // trusted until a probe or a lookup says otherwise
			r.upG = g.reg.Gauge("eppi_gateway_replica_up",
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

// Close stops the health prober. The handler keeps working (probing
// verdicts just freeze).
func (g *Gateway) Close() {
	g.stop()
	g.probeWG.Wait()
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
	d := g.lat.percentile(hedgePercentile, 50*time.Millisecond)
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
	return res.providers, nil
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
	key := cacheKey(g.epoch.Load(), owner)
	if res, ok := g.cache.get(key); ok {
		g.inst.cacheHits.Inc()
		return res, true, nil
	}
	g.inst.cacheMiss.Inc()
	res, shared, err := g.flight.do(ctx, key, func() (lookupResult, error) {
		res, err := g.fetch(ctx, owner)
		if err == nil {
			g.observeEpoch(res.epoch)
			// Key by the epoch that actually answered: mid-swap, a newer
			// upstream's answer must not be findable under the old epoch.
			g.cache.put(cacheKey(res.epoch, owner), res)
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
			providers, epoch, err := r.client.QueryEpoch(ctx, owner)
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
	sp.Set("hedged", fmt.Sprintf("%v", hedged))
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
	hedge := g.hedgeDelay()
	var timer *time.Timer
	var hedgeC <-chan time.Time
	if hedge > 0 && next < len(candidates) {
		timer = time.NewTimer(hedge)
		hedgeC = timer.C
		defer timer.Stop()
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
}

// LookupBatch resolves many owners in one pass: cache hits are served
// without touching upstreams, the misses are grouped by owning shard
// (shard.Group — duplicates collapse), one sub-batch request per shard is
// fired concurrently through the same hedging/failover race as single
// lookups, shard failures degrade to per-owner errors, and every batch
// answer back-fills the (epoch, owner) response cache. Answers are
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
func (g *Gateway) LookupBatchInto(ctx context.Context, owners []string, buf []BatchAnswer) []BatchAnswer {
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
		// (A full clear would do, but resetting one bool per row is ~4×
		// cheaper than zeroing 72 bytes; hit rows are rewritten whole and
		// miss rows are assigned whole in the merge, so nothing else
		// stale is ever read.)
		for i := range answers {
			answers[i].Cached = false
		}
	} else {
		answers = make([]BatchAnswer, len(owners))
	}

	// Cache pass: one lock acquisition and one epoch load for the whole
	// batch — the warm path is why batching pays. The Cached flag doubles
	// as the hit marker: an unresolved row keeps Cached false.
	hits := g.cache.getBatch(g.epoch.Load(), owners, answers)
	g.inst.cacheHits.Add(uint64(hits))
	g.inst.cacheMiss.Add(uint64(len(owners) - hits))
	sp.SetInt("cache_hits", hits)
	if hits == len(owners) {
		return answers
	}

	missOwners := make([]string, 0, len(owners)-hits)
	for i := range answers {
		if !answers[i].Cached {
			missOwners = append(missOwners, owners[i])
		}
	}
	groups := shard.Group(missOwners, len(g.shards))
	type shardOut struct {
		rows  []httpapi.BatchRow
		epoch uint64
		err   error
	}
	outs := make([]shardOut, len(groups))
	var wg sync.WaitGroup
	for k, group := range groups {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(k int, group []string) {
			defer wg.Done()
			rows, epoch, err := g.fetchBatch(ctx, k, group)
			outs[k] = shardOut{rows: rows, epoch: epoch, err: err}
		}(k, group)
	}
	wg.Wait()

	// Merge the sub-batches: shard failures become per-owner errors, and
	// successful rows back-fill the cache under the epoch that answered
	// them (mid-swap, a newer shard's rows must not be findable under the
	// old epoch — same rule as single lookups).
	byOwner := make(map[string]BatchAnswer, len(missOwners))
	puts := make([]cachePut, 0, len(missOwners))
	var maxEpoch uint64
	failedShards := 0
	for k := range outs {
		out := &outs[k]
		if len(groups[k]) == 0 {
			continue
		}
		if out.err != nil {
			failedShards++
			for _, owner := range groups[k] {
				byOwner[owner] = BatchAnswer{Owner: owner,
					Err: fmt.Errorf("shard %d: %w", k, out.err)}
			}
			continue
		}
		if out.epoch > maxEpoch {
			maxEpoch = out.epoch
		}
		for _, row := range out.rows {
			providers := row.Providers
			if row.Found && providers == nil {
				providers = []int{}
			}
			byOwner[row.Owner] = BatchAnswer{Owner: row.Owner, Found: row.Found,
				Providers: providers, Epoch: out.epoch}
			puts = append(puts, cachePut{
				key: cacheKey(out.epoch, row.Owner),
				val: lookupResult{providers: providers, notFound: !row.Found, epoch: out.epoch},
			})
		}
	}
	g.observeEpoch(maxEpoch)
	g.cache.putBatch(puts)
	for i := range answers {
		if answers[i].Cached {
			continue
		}
		ans, resolved := byOwner[owners[i]]
		if !resolved {
			// Defensive: a shard answered its sub-batch but dropped a row.
			ans = BatchAnswer{Owner: owners[i],
				Err: fmt.Errorf("gateway: shard %d returned no row for %q",
					shard.For(owners[i], len(g.shards)), owners[i])}
		}
		answers[i] = ans
	}
	if failedShards > 0 {
		sp.SetInt("failed_shards", failedShards)
	}
	return answers
}

// fetchBatch resolves one shard's sub-batch upstream through the same
// replica race (hedging, failover) as single-owner fetches.
func (g *Gateway) fetchBatch(ctx context.Context, k int, owners []string) ([]httpapi.BatchRow, uint64, error) {
	ctx, sp := trace.StartChild(ctx, "gateway.batch_shard")
	sp.SetInt("shard", k)
	sp.SetInt("sub_batch", len(owners))
	defer sp.End()
	type batchOut struct {
		rows  []httpapi.BatchRow
		epoch uint64
	}
	candidates := g.shards[k].candidates()
	out, winner, hedged, err := raceReplicas(g, ctx, candidates,
		func(ctx context.Context, r *replica, asp *trace.Span) (batchOut, error) {
			g.inst.batchSubreq.Inc()
			rows, epoch, err := r.client.QueryBatchEpoch(ctx, owners)
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
	sp.Set("hedged", fmt.Sprintf("%v", hedged))
	return out.rows, out.epoch, nil
}

// SearchAll fans a substring search out to every shard (one healthy
// replica each, with failover) and merges the results in owner order.
func (g *Gateway) SearchAll(ctx context.Context, q string, limit int) ([]index.Match, error) {
	matches, _, err := g.searchAll(ctx, q, limit)
	return matches, err
}

// searchAll implements SearchAll and additionally reports the highest
// epoch the answering shards served from. A fleet mid-swap answers a
// fan-out from two different matrices at once; rather than silently
// merging them, the gateway surfaces the skew (eppi_gateway_epoch_skew,
// a warning log, and span attributes) so the operator — and the epoch
// header on the response — can tell the merge was mixed.
func (g *Gateway) searchAll(ctx context.Context, q string, limit int) ([]index.Match, uint64, error) {
	g.inst.searches.Inc()
	ctx, sp := trace.StartChild(ctx, "gateway.search_fanout")
	defer sp.End()
	type shardOut struct {
		matches []index.Match
		epoch   uint64
		err     error
	}
	outs := make([]shardOut, len(g.shards))
	var wg sync.WaitGroup
	for k, st := range g.shards {
		wg.Add(1)
		go func(k int, st *shardState) {
			defer wg.Done()
			var lastErr error
			for _, r := range st.candidates() {
				matches, epoch, err := r.client.SearchEpoch(ctx, q, limit)
				if err == nil {
					outs[k] = shardOut{matches: matches, epoch: epoch}
					return
				}
				lastErr = err
			}
			outs[k] = shardOut{err: fmt.Errorf("shard %d: %w", k, lastErr)}
		}(k, st)
	}
	wg.Wait()
	var merged []index.Match
	minEpoch, maxEpoch := ^uint64(0), uint64(0)
	for _, out := range outs {
		if out.err != nil {
			sp.Set("error", out.err.Error())
			return nil, 0, out.err
		}
		merged = append(merged, out.matches...)
		if out.epoch < minEpoch {
			minEpoch = out.epoch
		}
		if out.epoch > maxEpoch {
			maxEpoch = out.epoch
		}
	}
	g.observeEpoch(maxEpoch)
	skew := maxEpoch - minEpoch
	g.inst.skewG.Set(float64(skew))
	sp.SetUint("epoch", maxEpoch)
	if skew > 0 {
		sp.SetUint("epoch_skew", skew)
		g.logger.Warn("mixed-epoch fan-out: shards answered from different index versions",
			slog.Uint64("min_epoch", minEpoch), slog.Uint64("max_epoch", maxEpoch))
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Owner < merged[j].Owner })
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	sp.SetInt("matches", len(merged))
	return merged, maxEpoch, nil
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

// AggregateStats sums the per-shard load counters (first healthy replica
// of each shard). Shards that cannot be reached are skipped; reached
// reports how many answered.
func (g *Gateway) AggregateStats(ctx context.Context) (httpapi.StatsResponse, int) {
	var total httpapi.StatsResponse
	var fanoutWeighted float64
	reached := 0
	for _, st := range g.shards {
		for _, r := range st.candidates() {
			sr, err := r.client.Stats(ctx)
			if err != nil {
				continue
			}
			total.Queries += sr.Queries
			fanoutWeighted += sr.AvgFanout * float64(sr.Queries)
			reached++
			break
		}
	}
	if total.Queries > 0 {
		total.AvgFanout = fanoutWeighted / float64(total.Queries)
	}
	return total, reached
}

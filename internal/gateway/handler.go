package gateway

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/httpapi"
	"repro/internal/shard"
	"repro/internal/trace"
)

// gate is the load-shedding admission control: a bounded in-flight
// semaphore with a queue-wait deadline. A request that cannot be
// admitted within the wait is shed — the gateway answers 503 fast
// instead of queueing into collapse.
type gate struct {
	sem  chan struct{}
	wait time.Duration
}

func newGate(maxInFlight int, wait time.Duration) *gate {
	return &gate{sem: make(chan struct{}, maxInFlight), wait: wait}
}

// errShed reports an admission-gate rejection.
var errShed = errors.New("gateway: overloaded, request shed")

// acquire admits the request or sheds it. The caller must release() on
// every nil return.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.sem <- struct{}{}:
		return nil
	default:
	}
	timer := time.NewTimer(g.wait)
	defer timer.Stop()
	select {
	case g.sem <- struct{}{}:
		return nil
	case <-timer.C:
		return errShed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gate) release() { <-g.sem }

// inFlight returns the currently admitted request count.
func (g *gate) inFlight() int { return len(g.sem) }

// GatewayHealthz is the gateway's /v1/healthz payload: per-shard replica
// liveness as last probed. Status is "ok" while every shard has at least
// one live replica, "degraded" otherwise.
type GatewayHealthz struct {
	Status   string     `json:"status"`
	Shards   int        `json:"shards"`
	Epoch    uint64     `json:"epoch"`    // highest upstream-reported epoch
	Replicas [][]string `json:"replicas"` // [shard][replica] = "up" | "down"
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// buildMux wires the gateway routes. Admission control covers the query
// paths (/v1/query, /v1/query/batch); the observability endpoints stay
// reachable under overload — an operator debugging a shedding gateway
// needs /v1/metrics most exactly then.
func (g *Gateway) buildMux() {
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /v1/query", g.wrap("query", true, g.handleQuery))
	g.mux.HandleFunc("POST /v1/query/batch", g.wrap("batch", true, g.handleBatch))
	g.mux.HandleFunc("GET /v1/privacy", g.wrap("privacy", false, g.handlePrivacy))
	g.mux.HandleFunc("GET /v1/healthz", g.wrap("healthz", false, g.handleHealthz))
	g.mw.MountObservability(g.mux)
}

// wrap layers the shared request middleware (httpapi.Middleware, the one
// shard nodes run) around a route handler, with admission control (when
// gated) between its two layers: the latency a route records includes
// the admission wait, the span does not, and a shed request counts as a
// 5xx of its route without opening a span.
func (g *Gateway) wrap(route string, gated bool, fn http.HandlerFunc) http.HandlerFunc {
	h := g.mw.Trace(route, nil, fn)
	if gated {
		h = g.admitted(h)
	}
	return g.mw.Instrument(route, h)
}

// admitted applies the load-shedding gate.
func (g *Gateway) admitted(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := g.gate.acquire(r.Context()); err != nil {
			if errors.Is(err, errShed) {
				g.inst.sheds.Inc()
				w.Header().Set("Retry-After", "1")
			}
			// A shed, or the client went away while queued.
			httpapi.WriteError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		g.inst.inflightG.Set(float64(g.gate.inFlight()))
		defer func() {
			g.gate.release()
			g.inst.inflightG.Set(float64(g.gate.inFlight()))
		}()
		fn(w, r)
	}
}

// auditRecord emits one audit entry for a front-door request. The
// g.sink == nil check at every call site keeps the disabled path free
// of even the Entry construction.
func (g *Gateway) auditRecord(r *http.Request, route, owner string, shardID int, epoch uint64, results, status int) {
	var traceID string
	if sp := trace.FromContext(r.Context()); sp != nil {
		traceID = sp.TraceID().String()
	}
	g.sink.Record(audit.Entry{
		Route:   route,
		Owner:   owner,
		Shard:   shardID,
		Epoch:   epoch,
		Trace:   traceID,
		Results: results,
		Status:  status,
	})
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	owner := r.URL.Query().Get("owner")
	if owner == "" {
		httpapi.WriteError(w, http.StatusBadRequest, "missing owner parameter")
		return
	}
	// Observe before the cache decision: a scanner probing hot identities
	// hits the cache most of the time, and those probes must still count.
	g.hot.Observe(owner)
	ownerShard := shard.For(owner, len(g.shards))
	res, cached, err := g.lookup(r.Context(), owner)
	if sp := trace.FromContext(r.Context()); sp != nil {
		if cached {
			sp.Set("cache", "hit")
		} else {
			sp.Set("cache", "miss")
		}
	}
	if err != nil {
		if g.sink != nil {
			g.auditRecord(r, "query", owner, ownerShard, 0, -1, http.StatusBadGateway)
		}
		httpapi.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	// Stamp the epoch of the answer itself (a cache hit reports the epoch
	// it was fetched under, exactly like the shard node would have).
	w.Header().Set(httpapi.EpochHeader, strconv.FormatUint(res.epoch, 10))
	if res.notFound {
		if g.sink != nil {
			g.auditRecord(r, "query", owner, ownerShard, res.epoch, -1, http.StatusNotFound)
		}
		httpapi.WriteError(w, http.StatusNotFound, "owner not found: "+owner)
		return
	}
	if g.sink != nil {
		g.auditRecord(r, "query", owner, ownerShard, res.epoch, httpapi.CountProviders(res.providers), http.StatusOK)
	}
	httpapi.WriteQueryRaw(w, owner, res.providers)
}

// handleBatch is the gateway's POST /v1/query/batch: the whole batch is
// admitted (and shed) as one request, routed per shard by LookupBatch.
// The response is always 200 with per-owner rows — a missing owner or an
// unreachable shard degrades that row, never the batch. The epoch header
// carries the gateway's fleet view after the batch (each row's authoritative
// epoch is the snapshot of the sub-batch that answered it).
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	owners, status, err := httpapi.ReadBatchRequest(w, r)
	if err != nil {
		httpapi.WriteError(w, status, err.Error())
		return
	}
	// A scanner batching its probes must trip the hot-owner tracker and
	// leave an audit trail exactly like k single queries would.
	for _, owner := range owners {
		g.hot.Observe(owner)
	}
	sc := g.scratch.Get().(*batchScratch)
	defer g.putScratch(sc)
	answers := g.lookupBatch(r.Context(), owners, sc.answers, sc)
	sc.answers = answers
	if g.sink != nil {
		for _, ans := range answers {
			ownerShard := shard.For(ans.Owner, len(g.shards))
			switch {
			case ans.Err != nil:
				g.auditRecord(r, "batch", ans.Owner, ownerShard, ans.Epoch, -1, http.StatusBadGateway)
			case !ans.Found:
				g.auditRecord(r, "batch", ans.Owner, ownerShard, ans.Epoch, -1, http.StatusNotFound)
			default:
				g.auditRecord(r, "batch", ans.Owner, ownerShard, ans.Epoch, httpapi.CountProviders(ans.raw), http.StatusOK)
			}
		}
	}
	w.Header().Set(httpapi.EpochHeader, strconv.FormatUint(g.Epoch(), 10))
	httpapi.WriteBatchRaw(w, len(answers), func(i int) httpapi.RawRow {
		ans := &answers[i]
		row := httpapi.RawRow{Owner: ans.Owner, Found: ans.Found, Providers: ans.raw}
		if ans.Err != nil {
			row.Error = ans.Err.Error()
		}
		return row
	})
}

// handlePrivacy serves the fleet-wide privacy view: the newest verified
// per-epoch report plus the gateway's own hot-owner flags. 404 only when
// no shard anywhere has a report — a partially-reporting fleet still
// answers, marked degraded.
func (g *Gateway) handlePrivacy(w http.ResponseWriter, r *http.Request) {
	agg := g.AggregatePrivacy(r.Context())
	if agg.Report == nil && len(agg.HotOwners) == 0 {
		httpapi.WriteError(w, http.StatusNotFound, "no privacy report published on any shard")
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, agg)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := GatewayHealthz{Status: "ok", Shards: len(g.shards), Epoch: g.Epoch(), Replicas: make([][]string, len(g.shards))}
	for k, st := range g.shards {
		live := 0
		states := make([]string, len(st.replicas))
		for i, rep := range st.replicas {
			if rep.up.Load() {
				states[i] = "up"
				live++
			} else {
				states[i] = "down"
			}
		}
		resp.Replicas[k] = states
		if live == 0 {
			resp.Status = "degraded"
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// Package httpapi exposes the hosted PPI locator service over HTTP — the
// deployment form of the paper's "global PPI server in a third-party
// domain". The API surface is deliberately minimal and leaks nothing
// beyond the published index:
//
//	GET /v1/query?owner=<identity>   → {"owner": ..., "providers": [ids]}
//	POST /v1/query/batch             → {"results": [{"owner": ..., "found": ..., "providers": [ids]}]}
//	GET /v1/healthz                  → {"status": "ok", "providers": m, "owners": n}
//	GET /v1/metrics                  → Prometheus text exposition (when enabled)
//	GET /v1/privacy                  → the served epoch's ε-audit report (privacy.json)
//
// A server holding one column shard of a larger index (internal/shard)
// additionally reports its shard identity in /v1/healthz and annotates
// every root span with shard/shards attributes, so a gateway (or a
// human) can always tell which slice of the index answered.
//
// AuthSearch is intentionally absent: the second search phase happens at
// the providers, never at the untrusted host.
//
// With WithMetrics, every route is wrapped in the shared request
// middleware (Middleware, which the gateway mounts too) that records
// per-route latency histograms and status-class counters, and the wrapped
// index server reports query counters and the fan-out histogram into the
// same registry — the only load counters the node keeps.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/trace"
)

// Trace-propagation headers: a client carrying an active span stamps both
// on every request, and a traced server joins that trace instead of
// opening a fresh one — the distributed span tree shares one trace id.
const (
	// TraceIDHeader carries the 16-hex-digit trace id.
	TraceIDHeader = "X-Eppi-Trace-Id"
	// ParentSpanHeader carries the caller's span id, adopted as the
	// parent of the server's root span.
	ParentSpanHeader = "X-Eppi-Parent-Span"
	// EpochHeader carries the publication epoch of the index that
	// answered, stamped on every response. The gateway keys its response
	// cache by it (so a re-publication invalidates stale entries) and
	// uses it to detect mixed-epoch fleets mid-swap.
	EpochHeader = "X-Eppi-Epoch"
)

// Handler serves the locator API over an index server. The server is held
// behind an atomic pointer so a re-published index can be hot-swapped in
// (Swap) RCU-style: each request loads the pointer once and runs entirely
// against that snapshot, so in-flight queries finish on the old epoch
// while new requests see the new one — no restart, no lock on the query
// path.
type Handler struct {
	server atomic.Pointer[index.Server]
	mux    *http.ServeMux
	mw     Middleware
	sink   *audit.Sink

	// batchSize is the eppi_batch_size histogram (nil without metrics):
	// owners per POST /v1/query/batch request.
	batchSize *metrics.Histogram

	// report is the privacy audit of the epoch being served, installed
	// alongside the index snapshot (SetReport). It is advisory: a node
	// missing its report still serves queries — observability must not
	// take down serving.
	report atomic.Pointer[privacy.Report]

	// swapMu serializes Swap against itself; the query path never takes it.
	swapMu sync.Mutex
	epochG *metrics.Gauge   // eppi_epoch (nil without metrics)
	swaps  *metrics.Counter // eppi_epoch_swaps_total (nil without metrics)
}

var _ http.Handler = (*Handler)(nil)

// Option configures a Handler.
type Option func(*Handler)

// WithMetrics instruments the handler (per-route latency and status-class
// counters), exposes GET /v1/metrics, and wires the index server's query
// counters into the same registry. A nil registry disables all of it.
func WithMetrics(reg *metrics.Registry) Option {
	return func(h *Handler) { h.mw.Registry = reg }
}

// WithTracer records one span tree per request into tr (root span per
// route, child spans down through the index lookup) and exposes
// GET /v1/traces serving the recent-trace ring as Chrome trace-event JSON
// (or an indented text tree with ?format=text). Requests carrying
// TraceIDHeader join the caller's trace instead of opening a new one.
// A nil tracer disables all of it.
func WithTracer(tr *trace.Tracer) Option {
	return func(h *Handler) { h.mw.Tracer = tr }
}

// WithAudit records every single and batched query into sink — who asked
// about whom, against which shard and epoch — via the async audit log
// (internal/audit). A nil sink disables auditing; the query path then
// pays a single nil check and allocates nothing extra.
func WithAudit(sink *audit.Sink) Option {
	return func(h *Handler) { h.sink = sink }
}

// NewHandler wraps srv.
func NewHandler(srv *index.Server, opts ...Option) (*Handler, error) {
	if srv == nil {
		return nil, errors.New("httpapi: nil index server")
	}
	h := &Handler{mux: http.NewServeMux(), mw: Middleware{Tier: "HTTP"}}
	h.server.Store(srv)
	for _, opt := range opts {
		opt(h)
	}
	if reg := h.mw.Registry; reg != nil {
		srv.Instrument(reg)
		if id, of, sharded := srv.ShardInfo(); sharded {
			reg.Gauge("eppi_shard_id", "Column shard id this node serves.").Set(float64(id))
			reg.Gauge("eppi_shard_count", "Total shards in the index partition.").Set(float64(of))
		}
		h.epochG = reg.Gauge("eppi_epoch", "Publication epoch of the index being served.")
		h.epochG.Set(float64(srv.Epoch()))
		h.swaps = reg.Counter("eppi_epoch_swaps_total", "Hot snapshot swaps to a newly published epoch.")
		h.batchSize = reg.Histogram("eppi_batch_size",
			"Owners per batched lookup request.", BatchSizeBuckets)
	}
	h.mw.MountObservability(h.mux)
	h.mux.HandleFunc("GET /v1/query", h.wrap("query", h.handleQuery))
	h.mux.HandleFunc("POST /v1/query/batch", h.wrap("batch", h.handleQueryBatch))
	h.mux.HandleFunc("GET /v1/healthz", h.wrap("healthz", h.handleHealthz))
	h.mux.HandleFunc("GET /v1/privacy", h.wrap("privacy", h.handlePrivacy))
	return h, nil
}

// SetReport installs the privacy report of the epoch being served and
// exports its headline numbers to the metrics registry. Callers pair it
// with Swap on every epoch change; a nil report clears the endpoint
// (the node serves 404 until the next epoch brings one).
func (h *Handler) SetReport(rep *privacy.Report) {
	h.report.Store(rep)
	if rep != nil {
		privacy.Export(h.mw.Registry, rep)
	}
}

// Report returns the installed privacy report, or nil.
func (h *Handler) Report() *privacy.Report {
	return h.report.Load()
}

// srv returns the currently served index snapshot. Handlers load it once
// per request and use that snapshot throughout, so a concurrent Swap
// never mixes two epochs inside one response.
func (h *Handler) srv() *index.Server {
	return h.server.Load()
}

// Swap atomically replaces the served index with a newly published epoch.
// In-flight requests finish against the snapshot they already loaded; new
// requests see next. The swap refuses a snapshot whose shard identity
// differs from the current one — a re-publication changes the epoch, not
// which slice of the index this node serves.
func (h *Handler) Swap(next *index.Server) error {
	if next == nil {
		return errors.New("httpapi: swap to nil index server")
	}
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	cur := h.server.Load()
	curID, curOf, curSharded := cur.ShardInfo()
	nextID, nextOf, nextSharded := next.ShardInfo()
	if curSharded != nextSharded || curID != nextID || curOf != nextOf {
		return fmt.Errorf("httpapi: swap changes shard identity %d/%d → %d/%d", curID, curOf, nextID, nextOf)
	}
	// Idempotent: the registry hands back the same series, so query
	// counters continue across epochs instead of resetting.
	next.Instrument(h.mw.Registry)
	h.server.Store(next)
	if h.epochG != nil {
		h.epochG.Set(float64(next.Epoch()))
	}
	if h.swaps != nil {
		h.swaps.Inc()
	}
	return nil
}

// wrap layers the shared metrics and tracing middleware (both conditional
// on their options) around a route handler. Node root spans carry the
// request method, the shard identity and epoch of the snapshot serving
// it.
func (h *Handler) wrap(route string, fn http.HandlerFunc) http.HandlerFunc {
	return h.mw.Instrument(route, h.mw.Trace(route, h.annotate, fn))
}

func (h *Handler) annotate(sp *trace.Span, r *http.Request) {
	sp.Set("method", r.Method)
	srv := h.srv()
	if id, of, sharded := srv.ShardInfo(); sharded {
		sp.SetInt("shard", id)
		sp.SetInt("shards", of)
	}
	sp.SetUint("epoch", srv.Epoch())
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// QueryResponse is the /v1/query payload.
type QueryResponse struct {
	Owner     string `json:"owner"`
	Providers []int  `json:"providers"`
}

// Batch limits. A batched lookup amortizes round-trips, it is not a bulk
// export channel: the owner-count cap bounds index work per request and
// the body cap bounds what a request can make the server buffer. Both
// violations answer 413.
const (
	// MaxBatchOwners caps owners per POST /v1/query/batch request.
	MaxBatchOwners = 1024
	// MaxBatchBody caps the request body in bytes.
	MaxBatchBody = 1 << 20
)

// BatchSizeBuckets are the eppi_batch_size histogram bounds: powers of
// two up to MaxBatchOwners.
var BatchSizeBuckets = metrics.ExponentialBuckets(1, 2, 11)

// BatchQueryRequest is the POST /v1/query/batch request body.
type BatchQueryRequest struct {
	Owners []string `json:"owners"`
}

// BatchRow is one per-owner result of a batched lookup. Misses travel
// in-band (Found false) so one unknown owner never fails the batch.
type BatchRow struct {
	Owner     string `json:"owner"`
	Found     bool   `json:"found"`
	Providers []int  `json:"providers"`
	// Error is set by the gateway when the shard owning this identity
	// could not be reached; a shard node always leaves it empty (its rows
	// all come from the one snapshot that answered).
	Error string `json:"error,omitempty"`
}

// BatchQueryResponse is the POST /v1/query/batch payload. Results are
// position-matched to the request's owners.
type BatchQueryResponse struct {
	Results []BatchRow `json:"results"`
}

// ShardRef identifies which column shard of a partitioned index a node
// serves.
type ShardRef struct {
	ID int `json:"id"`
	Of int `json:"of"`
}

// HealthzResponse is the /v1/healthz payload. Shard is nil for a node
// serving a full, unsharded index; Epoch is 0 for an index that was never
// re-published.
type HealthzResponse struct {
	Status    string    `json:"status"`
	Providers int       `json:"providers"`
	Owners    int       `json:"owners"`
	Epoch     uint64    `json:"epoch"`
	Shard     *ShardRef `json:"shard,omitempty"`
}

// setEpochHeader stamps the answering snapshot's epoch on the response.
// Handlers call it with the same snapshot they answer from, so header and
// body can never straddle a concurrent swap.
func setEpochHeader(w http.ResponseWriter, srv *index.Server) {
	w.Header().Set(EpochHeader, strconv.FormatUint(srv.Epoch(), 10))
}

// auditRecord logs one query outcome to the audit sink. The
// h.sink == nil check at every call site keeps the disabled path free
// of even the Entry construction.
func (h *Handler) auditRecord(r *http.Request, srv *index.Server, route, owner string, results, status int) {
	shardID := -1
	if id, _, sharded := srv.ShardInfo(); sharded {
		shardID = id
	}
	traceID := ""
	if sp := trace.FromContext(r.Context()); sp != nil {
		traceID = sp.TraceID().String()
	}
	h.sink.Record(audit.Entry{
		Route:   route,
		Owner:   owner,
		Shard:   shardID,
		Epoch:   srv.Epoch(),
		Trace:   traceID,
		Results: results,
		Status:  status,
	})
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	srv := h.srv()
	setEpochHeader(w, srv)
	owner := r.URL.Query().Get("owner")
	if owner == "" {
		WriteError(w, http.StatusBadRequest, "missing owner parameter")
		return
	}
	providers, err := srv.QueryCtx(r.Context(), owner)
	if err != nil {
		if errors.Is(err, index.ErrUnknownOwner) {
			if h.sink != nil {
				h.auditRecord(r, srv, "query", owner, -1, http.StatusNotFound)
			}
			WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		// Errors are exposure too: a scanner probing with requests that
		// blow up server-side must leave the same trail as one whose
		// probes succeed.
		if h.sink != nil {
			h.auditRecord(r, srv, "query", owner, -1, http.StatusInternalServerError)
		}
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if h.sink != nil {
		h.auditRecord(r, srv, "query", owner, len(providers), http.StatusOK)
	}
	WriteQuery(w, owner, providers)
}

// handleQueryBatch resolves a whole owner list against one snapshot.
// The snapshot is loaded once and answers every row, so the X-Eppi-Epoch
// header is the epoch of each and every result — a batch can never mix
// two index versions even when a hot swap lands mid-request. The POST
// verb only carries the owner list (too long for a query string); the
// route reads published state exactly like GET /v1/query.
func (h *Handler) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	srv := h.srv()
	setEpochHeader(w, srv)
	owners, status, err := ReadBatchRequest(w, r)
	if err != nil {
		WriteError(w, status, err.Error())
		return
	}
	if h.batchSize != nil {
		h.batchSize.Observe(float64(len(owners)))
	}
	items := srv.QueryBatch(r.Context(), owners)
	if h.sink != nil {
		// One audit entry per owner, exactly like k single queries would
		// leave: a scanner must not shrink its trail by batching probes.
		for _, it := range items {
			n := -1
			if it.Found {
				n = len(it.Providers)
			}
			h.auditRecord(r, srv, "batch", it.Owner, n, http.StatusOK)
		}
	}
	WriteBatch(w, len(items), func(i int) BatchRow {
		return BatchRow{Owner: items[i].Owner, Found: items[i].Found, Providers: items[i].Providers}
	})
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	srv := h.srv()
	setEpochHeader(w, srv)
	resp := HealthzResponse{
		Status:    "ok",
		Providers: srv.Providers(),
		Owners:    srv.Owners(),
		Epoch:     srv.Epoch(),
	}
	if id, of, sharded := srv.ShardInfo(); sharded {
		resp.Shard = &ShardRef{ID: id, Of: of}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (h *Handler) handlePrivacy(w http.ResponseWriter, r *http.Request) {
	srv := h.srv()
	setEpochHeader(w, srv)
	rep := h.report.Load()
	if rep == nil {
		WriteError(w, http.StatusNotFound, "no privacy report for the served epoch")
		return
	}
	WriteJSON(w, http.StatusOK, rep)
}

// DefaultTimeout bounds client calls when the caller supplies no
// *http.Client: a hung locator must not hang every searcher.
const DefaultTimeout = 10 * time.Second

// Default retry policy: every API call is read-only — idempotent GETs
// plus the batch POST, whose body merely carries an owner list — so the
// client retries transient failures (connection errors, 5xx, 429) a few
// times with capped, jittered exponential backoff before giving up.
// The retry gate is explicit per call site (do's idempotent flag): a
// future mutating route must opt out, not rely on its verb.
// A Retry-After header on the failure (the gateway's load shedder sends
// one with its 503s) overrides the client's own backoff: the server
// knows its load better than the client's doubling schedule does.
const (
	// DefaultRetries is the number of re-attempts after the first try.
	DefaultRetries = 2
	// DefaultBackoff is the first backoff interval; each retry doubles it.
	DefaultBackoff = 25 * time.Millisecond
	// DefaultBackoffCap bounds the grown backoff interval.
	DefaultBackoffCap = 250 * time.Millisecond
	// RetryAfterCap bounds how long a server-sent Retry-After may hold the
	// client — a confused (or hostile) server must not park it for hours.
	RetryAfterCap = 5 * time.Second
)

// Client is a typed client for the locator API, used by remote searchers
// for the first phase of the two-phase search and by the gateway to reach
// shard nodes.
type Client struct {
	base string
	http *http.Client

	retries    int
	backoff    time.Duration
	backoffCap time.Duration
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetries sets the number of retry attempts after a transient
// failure (0 disables retrying).
func WithRetries(n int) ClientOption {
	return func(c *Client) { c.retries = n }
}

// NewClient returns a client for the service at base URL (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for a default client
// with DefaultTimeout; per-call deadlines tighter than that come from the
// caller's context.
func NewClient(base string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: DefaultTimeout}
	}
	c := &Client{
		base:       base,
		http:       httpClient,
		retries:    DefaultRetries,
		backoff:    DefaultBackoff,
		backoffCap: DefaultBackoffCap,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ErrOwnerNotFound reports a 404 from /v1/query.
var ErrOwnerNotFound = errors.New("httpapi: owner not found")

// retryableStatus reports whether a response code marks a transient
// server-side condition worth retrying on an idempotent GET.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// get issues a context-bound GET through the retrying do path; every GET
// in this API is idempotent.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	return c.do(ctx, http.MethodGet, path, nil, true)
}

// do issues a context-bound request and returns the response. When ctx
// carries an active trace span, the request is stamped with the
// propagation headers so a traced server joins the caller's trace. A
// non-nil body is sent as JSON and rebuilt for every attempt.
//
// For idempotent calls, transient failures — connection errors, 5xx,
// 429 — are retried up to the configured count with capped exponential
// backoff and full jitter; idempotent is the explicit retry gate, and a
// call site may only open it for a request that is safe to repeat
// (every GET, and the read-only batch POST). Context cancellation is
// honored everywhere: it aborts the in-flight request, is never itself
// retried, and cuts backoff sleeps short.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool) (*http.Response, error) {
	retries := c.retries
	if !idempotent {
		retries = 0
	}
	newReq := func() (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if sp := trace.FromContext(ctx); sp != nil {
			req.Header.Set(TraceIDHeader, sp.TraceID().String())
			req.Header.Set(ParentSpanHeader, sp.ID().String())
		}
		return req, nil
	}
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		req, err := newReq()
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(req)
		switch {
		case err == nil && !retryableStatus(resp.StatusCode):
			return resp, nil
		case attempt >= retries:
			return resp, err // whatever the last attempt produced
		case err != nil && ctx.Err() != nil:
			// The caller gave up; a retry would only mask that.
			return nil, err
		}
		retryAfter := time.Duration(-1)
		if err == nil {
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			// Retrying: release the connection of the failed attempt.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		if retryAfter >= 0 {
			// The server said when to come back; honor that instead of
			// guessing, without advancing the exponential schedule.
			if err := sleepFor(ctx, retryAfter); err != nil {
				return nil, err
			}
			continue
		}
		if err := sleepJittered(ctx, backoff); err != nil {
			return nil, err
		}
		if backoff *= 2; backoff > c.backoffCap {
			backoff = c.backoffCap
		}
	}
}

// parseRetryAfter interprets a Retry-After header as delay-seconds,
// clamped to RetryAfterCap. It returns -1 for an absent or unparseable
// header (the HTTP-date form is deliberately unsupported: every sender in
// this system uses seconds). 0 is valid and means "retry immediately".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return -1
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return -1
	}
	d := time.Duration(secs) * time.Second
	if d > RetryAfterCap {
		d = RetryAfterCap
	}
	return d
}

// sleepFor sleeps exactly d (no jitter — the server picked the number),
// returning early with the context error on cancellation.
func sleepFor(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// sleepJittered sleeps a uniformly random duration in [d/2, d), returning
// early with the context error on cancellation.
func sleepJittered(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	jittered := d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	timer := time.NewTimer(jittered)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// epochOf parses the EpochHeader a serving node stamps on every
// response; a missing or malformed header reads as epoch 0 (a pre-epoch
// node).
func epochOf(resp *http.Response) uint64 {
	n, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	return n
}

// maxShortBody bounds a short payload a client reads: an error message
// or a healthz answer.
const maxShortBody = 64 << 10

// errorText returns the message of a failed call's uniform error payload
// (empty when the body is not one).
func errorText(resp *http.Response) string {
	var e errorResponse
	_ = json.NewDecoder(io.LimitReader(resp.Body, maxShortBody)).Decode(&e)
	return e.Error
}

// Query runs QueryPPI remotely. The context bounds the round-trip
// (cancellation and deadline).
func (c *Client) Query(ctx context.Context, owner string) ([]int, error) {
	providers, _, err := c.QueryEpoch(ctx, owner)
	return providers, err
}

// QueryEpoch is Query plus the publication epoch of the index that
// answered (from the EpochHeader the node stamps on every response —
// including 404s, so negative answers are epoch-attributed too).
func (c *Client) QueryEpoch(ctx context.Context, owner string) ([]int, uint64, error) {
	resp, epoch, err := c.query(ctx, owner)
	if err != nil {
		return nil, epoch, err
	}
	defer resp.Body.Close()
	qr, err := readWire(resp.Body, parseQueryResponse)
	if err != nil {
		return nil, epoch, fmt.Errorf("httpapi: decode query response: %w", err)
	}
	return qr.Providers, epoch, nil
}

// QueryRaw is QueryEpoch keeping the provider list as the node encoded
// it: a JSON int array as WriteQuery writes it, checked against the
// decoder's grammar, in a slice of its own. The echoed owner must equal
// owner. The gateway caches and forwards these bytes as they are.
func (c *Client) QueryRaw(ctx context.Context, owner string) ([]byte, uint64, error) {
	resp, epoch, err := c.query(ctx, owner)
	if err != nil {
		return nil, epoch, err
	}
	defer resp.Body.Close()
	bp := getBuf()
	defer putBuf(bp)
	var echo, providers []byte
	err = readCapped(bp, resp.Body, maxResponseBody)
	if err == nil {
		echo, providers, err = parseQueryRaw(*bp)
	}
	if err == nil && !tokenIs(echo, owner) {
		err = fmt.Errorf("httpapi: response echoes %s, want %q", echo, owner)
	}
	if err != nil {
		return nil, epoch, fmt.Errorf("httpapi: decode query response: %w", err)
	}
	return CloneProviders(providers), epoch, nil
}

// query sends GET /v1/query and returns a 200 response for its caller to
// read; a 404 comes back as ErrOwnerNotFound.
func (c *Client) query(ctx context.Context, owner string) (*http.Response, uint64, error) {
	resp, err := c.get(ctx, "/v1/query?owner="+url.QueryEscape(owner))
	if err != nil {
		return nil, 0, fmt.Errorf("httpapi: query: %w", err)
	}
	epoch := epochOf(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return resp, epoch, nil
	case http.StatusNotFound:
		resp.Body.Close()
		return nil, epoch, fmt.Errorf("%w: %q", ErrOwnerNotFound, owner)
	}
	defer resp.Body.Close()
	return nil, epoch, fmt.Errorf("httpapi: query status %d: %s", resp.StatusCode, errorText(resp))
}

// QueryBatch resolves many owners in one round-trip. Rows come back
// position-matched to owners, misses in-band (Found false) — one unknown
// owner never fails the batch.
func (c *Client) QueryBatch(ctx context.Context, owners []string) ([]BatchRow, error) {
	rows, _, err := c.QueryBatchEpoch(ctx, owners)
	return rows, err
}

// QueryBatchEpoch is QueryBatch plus the publication epoch of the
// snapshot that answered. The server resolves the whole batch against one
// snapshot, so the epoch applies to every row.
func (c *Client) QueryBatchEpoch(ctx context.Context, owners []string) ([]BatchRow, uint64, error) {
	resp, epoch, err := c.queryBatch(ctx, owners)
	if err != nil {
		return nil, epoch, err
	}
	defer resp.Body.Close()
	rows, err := readWire(resp.Body, parseBatchResponse)
	if err != nil {
		return nil, epoch, fmt.Errorf("httpapi: decode batch response: %w", err)
	}
	return rows, epoch, nil
}

// QueryBatchRaw is QueryBatchEpoch keeping the rows as bytes (RawBatch):
// each provider list is checked against the decoder's grammar but not
// decoded, and row i must echo owners[i]. The caller must Release the
// batch.
func (c *Client) QueryBatchRaw(ctx context.Context, owners []string) (*RawBatch, uint64, error) {
	resp, epoch, err := c.queryBatch(ctx, owners)
	if err != nil {
		return nil, epoch, err
	}
	defer resp.Body.Close()
	rb := rawBatchPool.Get().(*RawBatch)
	rb.buf = getBuf()
	err = readCapped(rb.buf, resp.Body, maxResponseBody)
	if err == nil {
		rb.rows, err = parseBatchRaw(*rb.buf, rb.rows)
	}
	if err == nil {
		err = checkEcho(rb.rows, owners)
	}
	if err != nil {
		rb.Release()
		return nil, epoch, fmt.Errorf("httpapi: decode batch response: %w", err)
	}
	return rb, epoch, nil
}

// queryBatch sends POST /v1/query/batch and returns a 200 response for
// its caller to read.
func (c *Client) queryBatch(ctx context.Context, owners []string) (*http.Response, uint64, error) {
	// The body is not pooled: the transport may still be reading it after
	// the response arrives.
	body := appendBatchRequest(nil, owners)
	// The POST carries an owner list too long for a query string but
	// reads published state exactly like GET /v1/query — it is safe to
	// repeat, so the GET-only retry gate is explicitly opened for it.
	resp, err := c.do(ctx, http.MethodPost, "/v1/query/batch", body, true)
	if err != nil {
		return nil, 0, fmt.Errorf("httpapi: query batch: %w", err)
	}
	epoch := epochOf(resp)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, epoch, fmt.Errorf("httpapi: query batch status %d: %s", resp.StatusCode, errorText(resp))
	}
	return resp, epoch, nil
}

// ErrNoPrivacyReport reports a node serving an epoch that carries no
// privacy report (404 from /v1/privacy).
var ErrNoPrivacyReport = errors.New("httpapi: no privacy report")

// Privacy fetches the privacy report of the epoch the node serves and
// re-verifies its self-checksum — the wire formatting may differ from
// privacy.json on disk, but the canonical re-encoding the seal covers
// survives the JSON round trip, so tampering anywhere between publish
// and this client still fails the CRC.
func (c *Client) Privacy(ctx context.Context) (*privacy.Report, error) {
	resp, err := c.get(ctx, "/v1/privacy")
	if err != nil {
		return nil, fmt.Errorf("httpapi: privacy: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, ErrNoPrivacyReport
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("httpapi: privacy status %d: %s", resp.StatusCode, errorText(resp))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("httpapi: privacy: %w", err)
	}
	rep, err := privacy.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("httpapi: privacy: %w", err)
	}
	return rep, nil
}

// Healthz checks service liveness: only a 200 answer reads as up.
func (c *Client) Healthz(ctx context.Context) (HealthzResponse, error) {
	resp, err := c.get(ctx, "/v1/healthz")
	if err != nil {
		return HealthzResponse{}, fmt.Errorf("httpapi: healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return HealthzResponse{}, fmt.Errorf("httpapi: healthz status %d: %s", resp.StatusCode, errorText(resp))
	}
	var hr HealthzResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxShortBody)).Decode(&hr); err != nil {
		return HealthzResponse{}, fmt.Errorf("httpapi: decode healthz: %w", err)
	}
	return hr, nil
}

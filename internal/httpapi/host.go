package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file is the HTTP plumbing every host-tier binary shares: the node
// (Handler), the gateway (internal/gateway) and the replication origin
// mount the same request middleware, observability routes and graceful
// drain loop.

// Middleware is the per-request plumbing of one serving tier. Its zero
// registry and tracer disable the corresponding layer; the route handler
// is then returned untouched and the uninstrumented hot path pays nothing.
type Middleware struct {
	// Tier names the serving tier as HELP text spells it: "HTTP" for the
	// node, "Gateway" for the gateway. Lower-cased ("http", "gateway") it
	// prefixes root span names ("<tier>.<route>") and names the metric
	// families eppi_<tier>_request_seconds and eppi_<tier>_requests_total.
	Tier     string
	Registry *metrics.Registry
	Tracer   *trace.Tracer
}

// statusClasses are the exposition label values for response codes.
var statusClasses = [6]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}

// Instrument records every request to route: its latency in
// eppi_<tier>_request_seconds{route} and its status class in
// eppi_<tier>_requests_total{route,class} — eppi_http_request_seconds
// and eppi_http_requests_total on the node, eppi_gateway_request_seconds
// and eppi_gateway_requests_total on the gateway.
func (m Middleware) Instrument(route string, fn http.HandlerFunc) http.HandlerFunc {
	if m.Registry == nil {
		return fn
	}
	tier := strings.ToLower(m.Tier)
	routeLabel := metrics.L("route", route)
	latency := m.Registry.Histogram("eppi_"+tier+"_request_seconds",
		m.Tier+" request latency by route.", metrics.DefDurationBuckets, routeLabel)
	var classes [6]*metrics.Counter
	for cls := 1; cls < len(classes); cls++ {
		classes[cls] = m.Registry.Counter("eppi_"+tier+"_requests_total",
			m.Tier+" requests by route and status class.", routeLabel, metrics.L("class", statusClasses[cls]))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := captureStatus(w)
		start := time.Now()
		fn(sw, r)
		latency.ObserveSince(start)
		if cls := sw.code / 100; cls >= 1 && cls <= 5 {
			classes[cls].Inc()
		}
	}
}

// Trace opens one span per request named "<tier>.<route>" — a root span,
// or a child of a remote caller's span when the request carries
// TraceIDHeader/ParentSpanHeader — and threads it through the request
// context so downstream layers hang their spans underneath. The span
// carries the route, whatever annotate adds, and the response status.
// annotate may be nil.
func (m Middleware) Trace(route string, annotate func(*trace.Span, *http.Request), fn http.HandlerFunc) http.HandlerFunc {
	if m.Tracer == nil {
		return fn
	}
	name := strings.ToLower(m.Tier) + "." + route
	return func(w http.ResponseWriter, r *http.Request) {
		var ctx context.Context
		var sp *trace.Span
		if tid, ok := trace.ParseID(r.Header.Get(TraceIDHeader)); ok && tid != 0 {
			parent, _ := trace.ParseID(r.Header.Get(ParentSpanHeader))
			ctx, sp = m.Tracer.StartRemote(r.Context(), name, trace.TraceID(tid), trace.SpanID(parent))
		} else {
			ctx, sp = m.Tracer.StartRoot(r.Context(), name)
		}
		sp.Set("route", route)
		if annotate != nil {
			annotate(sp, r)
		}
		sw := captureStatus(w)
		fn(sw, r.WithContext(ctx))
		sp.SetInt("status", sw.code)
		sp.End()
	}
}

// MountObservability registers GET /v1/metrics (with a registry) and
// GET /v1/traces (with a tracer) on mux. Both are counted like any other
// route but never traced, so reading the ring does not pollute it.
func (m Middleware) MountObservability(mux *http.ServeMux) {
	if m.Registry != nil {
		mux.HandleFunc("GET /v1/metrics", m.Instrument("metrics", m.Registry.ServeHTTP))
	}
	if m.Tracer != nil {
		mux.HandleFunc("GET /v1/traces", m.Instrument("traces", m.Tracer.ServeHTTP))
	}
}

// statusWriter captures the response code for the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// captureStatus wraps w to record its status code. An inner layer reuses
// the wrapper an outer one installed: both see every write either way.
func captureStatus(w http.ResponseWriter) *statusWriter {
	if sw, ok := w.(*statusWriter); ok {
		return sw
	}
	return &statusWriter{ResponseWriter: w, code: http.StatusOK}
}

// errorResponse is the uniform error payload.
type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is written can only be logged by
	// the caller's middleware; the payloads here are in-memory structs.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers status with the uniform error payload.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorResponse{Error: msg})
}

// DrainTimeout bounds how long Serve waits for in-flight requests after
// its context is cancelled.
const DrainTimeout = 5 * time.Second

// Serve runs handler on listener until the listener fails or ctx is
// cancelled (SIGINT/SIGTERM in the binaries). On cancellation it drains
// in-flight requests for up to DrainTimeout before forcing connections
// closed. A nil return after cancellation means the drain completed: no
// request is left to touch shared state such as a metrics registry.
func Serve(ctx context.Context, listener net.Listener, handler http.Handler, logger *slog.Logger) error {
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logger.Info("shutting down", slog.Duration("drain_timeout", DrainTimeout))
		drainCtx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
		defer cancel()
		shutdownErr <- httpSrv.Shutdown(drainCtx)
	}()
	if err := httpSrv.Serve(listener); err != nil && err != http.ErrServerClosed {
		return err
	}
	if ctx.Err() != nil {
		// Shutdown path: surface a drain failure (timeout) if any.
		if err := <-shutdownErr; err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	return nil
}

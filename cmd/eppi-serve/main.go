// Command eppi-serve runs the third-party locator service: it serves the
// HTTP query API over one shard of an epoch store written by
// eppi-construct -epoch-dir (internal/epoch). The store is the one
// artefact between construction and serving, so the binary holds only
// M′ and links none of the construction engine.
//
// Usage:
//
//	eppi-serve -addr 127.0.0.1:8081 -epoch-dir store/               # 1-shard store
//	eppi-serve -addr 127.0.0.1:8081 -epoch-dir store/ -shard 0/2    # shard node
//	eppi-serve -addr 127.0.0.1:8081 -epoch-dir cache/ -shard 0/2 \
//	           -epoch-origin http://origin:9000                      # mirrored node
//
// The node loads the shard named by the store's CURRENT pointer and then
// polls (-epoch-poll) for newly published epochs, hot-swapping the served
// snapshot RCU-style — in-flight queries finish on the old index version,
// new queries see the new one, no restart. The active epoch is surfaced in
// /v1/healthz, /v1/metrics (eppi_epoch, eppi_epoch_swaps_total), the
// X-Eppi-Epoch response header, and epoch.reload spans. A corrupted
// CURRENT pointer or half-written epoch directory is rejected and the
// node keeps serving its current epoch.
//
// With -epoch-origin the node needs no shared storage at all: -epoch-dir
// becomes a local cache that a replication mirror (internal/replica)
// fills by polling an eppi-origin server — resumable ranged downloads,
// optionally bandwidth-capped (-epoch-bandwidth) and pruned
// (-epoch-keep), each epoch CRC-verified against its manifest before the
// atomic rename that lets the watcher see it. Boot blocks until the
// cache holds its first epoch. Replication health is surfaced as
// eppi_replica_bytes_total, eppi_replica_fetch_seconds,
// eppi_replica_failures_total and the eppi_replica_lag_epochs gauge,
// plus replica.sync/replica.fetch spans.
//
// With -shard k/of the process serves only column shard k of a store
// published with -shards of: identities are assigned to shards by a
// stable hash of the owner name (internal/shard), so any party can
// compute the owning shard with no coordination. Without -shard the store
// must hold one shard. The shard identity is surfaced in /v1/healthz,
// /v1/metrics (eppi_shard_id / eppi_shard_count) and span attributes.
//
// Privacy telemetry: the node serves its epoch's ε-audit report at
// GET /v1/privacy (published as epochs/<n>/privacy.json by the
// constructing side), and -audit-dir enables the checksummed JSONL query
// audit log (internal/audit) recording per-query owner, shard, epoch,
// trace id and result cardinality.
//
// Endpoints: GET /v1/query?owner=…, POST /v1/query/batch,
// GET /v1/privacy, GET /v1/healthz, (unless -metrics=false) GET /v1/metrics in Prometheus
// text format, (unless -trace=0) GET /v1/traces serving recent request
// traces as Chrome trace-event JSON (load it in Perfetto; ?format=text
// for an indented tree), and (with -pprof) the net/http/pprof handlers
// under /debug/pprof/.
//
// Logs are structured (log/slog); -log-level and -log-format select
// verbosity and text/json rendering. Records emitted while serving a
// traced request carry its trace_id/span_id.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests are
// allowed to finish (bounded by a drain timeout) before the process
// exits, and only then — with no requests left to mutate counters — is
// the final metrics snapshot taken and logged.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/audit"
	"repro/internal/epoch"
	"repro/internal/httpapi"
	"repro/internal/index"
	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eppi-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eppi-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	epochDir := fs.String("epoch-dir", "", "serve from this epoch store written by eppi-construct -epoch-dir, hot-swapping when a new epoch is published (required)")
	epochPoll := fs.Duration("epoch-poll", epoch.DefaultPollPeriod, "how often to poll the epoch store's CURRENT pointer (±10% jitter per tick)")
	epochOrigin := fs.String("epoch-origin", "", "mirror epochs from this eppi-origin URL into -epoch-dir (the local cache) instead of relying on shared storage")
	epochSync := fs.Duration("epoch-sync", epoch.DefaultPollPeriod, "with -epoch-origin: how often to poll the origin for new epochs (±10% jitter per tick)")
	epochBandwidth := fs.Int64("epoch-bandwidth", 0, "with -epoch-origin: cap epoch downloads to this many bytes/second (0 = unlimited)")
	epochKeep := fs.Int("epoch-keep", 0, "with -epoch-origin: keep only the newest N epochs in the local cache (0 = keep all)")
	shardSpec := fs.String("shard", "", "serve one column shard, as \"k/of\" (e.g. 0/2)")
	withMetrics := fs.Bool("metrics", true, "expose GET /v1/metrics and instrument the index")
	traceCap := fs.Int("trace", trace.DefaultCapacity, "recent-trace ring capacity for GET /v1/traces (0 disables tracing)")
	withPprof := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	auditDir := fs.String("audit-dir", "", "write a checksummed JSONL query audit log into this directory (empty: auditing off)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *epochDir == "" {
		return fmt.Errorf("-epoch-dir is required: publish a store with eppi-construct -epoch-dir")
	}
	shardID, shardOf := 0, 1
	if *shardSpec != "" {
		var err error
		if shardID, shardOf, err = parseShardSpec(*shardSpec); err != nil {
			return err
		}
	}
	logger, err := logx.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	// Registry and tracer come first: with -epoch-origin the replication
	// mirror reports into them before the index is even loadable.
	var reg *metrics.Registry
	var opts []httpapi.Option
	if *withMetrics {
		reg = metrics.NewRegistry()
		metrics.RegisterRuntime(reg)
		metrics.RegisterBuildInfo(reg)
		opts = append(opts, httpapi.WithMetrics(reg))
	}
	var tracer *trace.Tracer
	if *traceCap > 0 {
		tracer = trace.New(*traceCap)
		opts = append(opts, httpapi.WithTracer(tracer))
	}

	var mirror *replica.Mirror
	if *epochOrigin != "" {
		// Pull-based replication: the mirror fills the local store from
		// the origin; everything below (Load, Watcher, RCU swap) then
		// works off local, verified files exactly as with shared
		// storage. Boot blocks until the cache holds its first epoch.
		mirror = &replica.Mirror{
			Origin:   *epochOrigin,
			Root:     *epochDir,
			Period:   *epochSync,
			Limit:    *epochBandwidth,
			Keep:     *epochKeep,
			Registry: reg,
			Tracer:   tracer,
			Logger:   logger,
		}
		if _, err := mirror.WaitReady(ctx); err != nil {
			return fmt.Errorf("mirror of %q: %w", *epochOrigin, err)
		}
	}
	srv, servedEpoch, err := epoch.Load(*epochDir, shardID, shardOf)
	if err != nil {
		return fmt.Errorf("epoch store %q: %w", *epochDir, err)
	}
	if *auditDir != "" {
		sink, err := audit.Open(*auditDir, audit.Options{Registry: reg, Logger: logger})
		if err != nil {
			return fmt.Errorf("audit log: %w", err)
		}
		defer sink.Close()
		opts = append(opts, httpapi.WithAudit(sink))
	}
	handler, err := httpapi.NewHandler(srv, opts...)
	if err != nil {
		return err
	}
	handler.SetReport(loadEpochReport(logger, *epochDir, servedEpoch))
	var watcherWG sync.WaitGroup
	if mirror != nil {
		// Keep pulling new epochs for as long as we serve; the Watcher
		// below notices each mirrored epoch through the local CURRENT
		// pointer, so the swap path is identical to shared storage.
		watcherWG.Add(1)
		go func() {
			defer watcherWG.Done()
			mirror.Run(ctx)
		}()
	}
	// Hot re-publication: poll the store and swap the served snapshot
	// RCU-style when CURRENT moves. In-flight requests finish on the
	// old epoch; a bad new epoch is rejected and the node stays put.
	w := &epoch.Watcher{
		Root:   *epochDir,
		Shard:  shardID,
		Of:     shardOf,
		Period: *epochPoll,
		Logger: logger,
		Tracer: tracer,
		OnSwap: func(next *index.Server, n uint64) error {
			if err := handler.Swap(next); err != nil {
				return err
			}
			// The report is advisory: a report-less epoch swaps in fine,
			// it just answers /v1/privacy with 404 until one appears.
			handler.SetReport(loadEpochReport(logger, *epochDir, n))
			return nil
		},
	}
	watcherWG.Add(1)
	go func() {
		defer watcherWG.Done()
		w.Run(ctx, servedEpoch)
	}()
	defer watcherWG.Wait()
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	up := []any{
		slog.String("addr", "http://"+listener.Addr().String()),
		slog.Int("providers", srv.Providers()),
		slog.Int("owners", srv.Owners()),
		slog.Bool("metrics", *withMetrics),
		slog.Int("trace_ring", *traceCap),
		slog.Bool("pprof", *withPprof),
	}
	if id, of, sharded := srv.ShardInfo(); sharded {
		up = append(up, slog.String("shard", fmt.Sprintf("%d/%d", id, of)))
	}
	up = append(up, slog.Uint64("epoch", servedEpoch), slog.String("epoch_dir", *epochDir))
	if *epochOrigin != "" {
		up = append(up, slog.String("epoch_origin", *epochOrigin))
	}
	logger.Info("locator service up", up...)
	return serve(ctx, listener, mux, logger, reg)
}

// serve runs the shared drain loop (httpapi.Serve) and, after a signal,
// logs the final metrics snapshot strictly AFTER the drain completes:
// scraping while requests were still finishing used to race the counters
// being incremented, so the "final" numbers could miss the last requests'
// worth of traffic. The summary goes out at info, the full exposition at
// debug.
func serve(ctx context.Context, listener net.Listener, handler http.Handler, logger *slog.Logger, reg *metrics.Registry) error {
	if err := httpapi.Serve(ctx, listener, handler, logger); err != nil || ctx.Err() == nil || reg == nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		logger.Warn("final metrics snapshot failed", slog.Any("error", err))
		return nil
	}
	logger.Info("final metrics snapshot (post-drain)", slog.Int("exposition_bytes", buf.Len()))
	logger.Debug("final metrics exposition", slog.String("text", buf.String()))
	return nil
}

// parseShardSpec parses "k/of" into a shard assignment. The whole spec
// must parse: trailing input ("1/2/3", "0/2x") is an error, not ignored.
func parseShardSpec(spec string) (k, of int, err error) {
	ks, ofs, found := strings.Cut(spec, "/")
	k, errK := strconv.Atoi(ks)
	of, errOf := strconv.Atoi(ofs)
	if !found || errK != nil || errOf != nil || k < 0 || of < 1 || k >= of {
		return 0, 0, fmt.Errorf("bad -shard %q: want \"k/of\" with 0 <= k < of", spec)
	}
	return k, of, nil
}

// loadEpochReport fetches an epoch's privacy report. The report is
// advisory: a store published before reports existed serves fine, it
// just answers /v1/privacy with 404.
func loadEpochReport(logger *slog.Logger, root string, n uint64) *privacy.Report {
	rep, err := epoch.LoadReportAt(root, n)
	switch {
	case err == nil:
		return rep
	case errors.Is(err, epoch.ErrNoReport):
		logger.Info("epoch has no privacy report", slog.Uint64("epoch", n))
	default:
		// A present-but-broken report is worth a louder line: something
		// tampered with or corrupted the store.
		logger.Warn("privacy report rejected", slog.Uint64("epoch", n), slog.Any("error", err))
	}
	return nil
}

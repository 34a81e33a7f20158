// Command eppi-gateway is the routing tier of the distributed ε-PPI
// locator service: a stateless front door over a fleet of column-shard
// eppi-serve nodes. Lookups are routed to the shard owning the identity
// (stable hash, no coordination), searches fan out to every shard, and
// the gateway layers response caching, hedged requests, health-probed
// replica failover and load shedding on top (internal/gateway).
//
// Usage:
//
//	eppi-gateway -addr 127.0.0.1:8090 \
//	  -shards "http://127.0.0.1:8081,http://127.0.0.1:8083;http://127.0.0.1:8082"
//
// -shards lists replica base URLs per shard: commas separate replicas of
// one shard, semicolons separate shards. The example above routes over
// two shards — shard 0 with two replicas, shard 1 with one.
//
// Endpoints mirror a shard node: GET /v1/query?owner=…, GET
// /v1/search?q=…, GET /v1/stats (aggregated over shards), GET
// /v1/healthz (per-replica probe verdicts), GET /v1/metrics, GET
// /v1/traces.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/gateway"
	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/trace"
)

const drainTimeout = 5 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eppi-gateway:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eppi-gateway", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address")
	shardsSpec := fs.String("shards", "", "replica base URLs: commas between replicas, semicolons between shards")
	cacheSize := fs.Int("cache", gateway.DefaultCacheSize, "response cache entries (negative disables)")
	cacheTTL := fs.Duration("cache-ttl", 0, "response cache entry lifetime (0: bounded only by LRU and epoch turnover)")
	maxInFlight := fs.Int("max-inflight", gateway.DefaultMaxInFlight, "admitted-request bound before shedding")
	queueWait := fs.Duration("queue-wait", gateway.DefaultQueueWait, "max admission queue wait before a 503")
	hedgeAfter := fs.Duration("hedge", 0, "fixed hedge trigger (0: adaptive p95, negative: off)")
	probePeriod := fs.Duration("probe", gateway.DefaultProbePeriod, "health probe interval (negative: off)")
	withMetrics := fs.Bool("metrics", true, "expose GET /v1/metrics")
	traceCap := fs.Int("trace", trace.DefaultCapacity, "recent-trace ring capacity for GET /v1/traces (0 disables)")
	auditDir := fs.String("audit-dir", "", "write a checksummed JSONL query audit log into this directory (empty: auditing off)")
	hotWindow := fs.Duration("hot-window", time.Minute, "hot-owner detection decay window")
	hotThreshold := fs.Int("hot-threshold", 0, "flag an owner queried this often within a decay window (0: off)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logx.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	cfg := gateway.Config{
		CacheSize:    *cacheSize,
		CacheTTL:     *cacheTTL,
		MaxInFlight:  *maxInFlight,
		QueueWait:    *queueWait,
		HedgeAfter:   *hedgeAfter,
		ProbePeriod:  *probePeriod,
		HotWindow:    *hotWindow,
		HotThreshold: *hotThreshold,
		Logger:       logger,
	}
	if *withMetrics {
		cfg.Registry = metrics.NewRegistry()
		metrics.RegisterRuntime(cfg.Registry)
		metrics.RegisterBuildInfo(cfg.Registry)
	}
	if *traceCap > 0 {
		cfg.Tracer = trace.New(*traceCap)
	}
	if *auditDir != "" {
		sink, err := audit.Open(*auditDir, audit.Options{Registry: cfg.Registry, Logger: logger})
		if err != nil {
			return fmt.Errorf("audit log: %w", err)
		}
		defer sink.Close()
		cfg.Audit = sink
	}

	shardURLs, err := parseShards(*shardsSpec)
	if err != nil {
		return err
	}
	cfg.Shards = shardURLs
	g, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	defer g.Close()
	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	replicas := 0
	for _, reps := range shardURLs {
		replicas += len(reps)
	}
	logger.Info("gateway up",
		slog.String("addr", "http://"+listener.Addr().String()),
		slog.Int("shards", len(shardURLs)),
		slog.Int("replicas", replicas),
		slog.Int("cache", *cacheSize),
		slog.Int("max_inflight", *maxInFlight))
	return serve(ctx, listener, g, logger)
}

// parseShards splits "r1,r2;r3" into per-shard replica URL lists.
func parseShards(spec string) ([][]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("no -shards given (example: -shards \"http://h1:8081;http://h2:8082\")")
	}
	var shards [][]string
	for k, group := range strings.Split(spec, ";") {
		var replicas []string
		for _, u := range strings.Split(group, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("shard %d replica %q: want an http(s):// base URL", k, u)
			}
			replicas = append(replicas, u)
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("shard %d has no replica URLs", k)
		}
		shards = append(shards, replicas)
	}
	return shards, nil
}

// serve runs the gateway HTTP server until ctx is cancelled, then drains
// in-flight requests for up to drainTimeout.
func serve(ctx context.Context, listener net.Listener, handler http.Handler, logger *slog.Logger) error {
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logger.Info("shutting down", slog.Duration("drain_timeout", drainTimeout))
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		shutdownErr <- httpSrv.Shutdown(drainCtx)
	}()
	if err := httpSrv.Serve(listener); err != nil && err != http.ErrServerClosed {
		return err
	}
	if ctx.Err() != nil {
		if err := <-shutdownErr; err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	return nil
}

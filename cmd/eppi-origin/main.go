// Command eppi-origin serves an epoch store read-only over HTTP — the
// publisher side of fleet replication. Point it at a store written by
// eppi-construct -epoch-dir; eppi-serve nodes anywhere mirror it with
// -epoch-origin http://host:port and hot-swap each epoch it publishes,
// with no shared filesystem between the machines.
//
// Usage:
//
//	eppi-construct -providers 100 -owners 50 -shards 2 -epoch-dir store/
//	eppi-origin -addr 127.0.0.1:9000 -store store/
//	eppi-serve -addr :8081 -epoch-dir cache0/ -epoch-origin http://127.0.0.1:9000 -shard 0/2
//
// The origin holds no state beyond the store directory: re-running
// eppi-construct against the same store publishes the next epoch, which
// mirrors pick up on their next poll. Served routes:
//
//	GET /v1/epochs/current        the store's active epoch number
//	GET /v1/epochs/{n}/manifest   an epoch's checksummed manifest
//	GET /v1/epochs/{n}/files/{f}  shard snapshots + privacy.json, ranged
//	GET /v1/healthz               liveness + current epoch
//	GET /v1/metrics               Prometheus exposition (unless -metrics=false)
//
// Only manifest-listed files and the public privacy report are served;
// the operator-only privacy_detail.json never leaves this host. Mirrors
// verify everything they download against the manifest, so the origin
// does not need to be trusted by the fleet any more than the store
// itself is.
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
	"syscall"

	"repro/internal/epoch"
	"repro/internal/httpapi"
	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/replica"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eppi-origin:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eppi-origin", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9000", "listen address")
	store := fs.String("store", "", "epoch store directory to serve (written by eppi-construct -epoch-dir)")
	withMetrics := fs.Bool("metrics", true, "expose GET /v1/metrics")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logx.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("-store is required (the epoch store directory to serve)")
	}
	if _, err := os.Stat(*store); err != nil {
		return fmt.Errorf("epoch store: %w", err)
	}

	opts := []replica.OriginOption{replica.WithOriginLogger(logger)}
	var reg *metrics.Registry
	if *withMetrics {
		reg = metrics.NewRegistry()
		metrics.RegisterRuntime(reg)
		metrics.RegisterBuildInfo(reg)
		opts = append(opts, replica.WithOriginMetrics(reg))
	}
	origin := replica.NewOrigin(*store, opts...)
	mux := http.NewServeMux()
	mux.Handle("/", origin)
	if reg != nil {
		mux.Handle("GET /v1/metrics", reg)
	}
	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	cur, err := epoch.Current(*store)
	if err != nil {
		// An empty store is a fine origin to boot: mirrors poll until the
		// first publish lands.
		cur = 0
	}
	logger.Info("replication origin up",
		slog.String("addr", "http://"+listener.Addr().String()),
		slog.String("store", *store), slog.Uint64("epoch", cur),
		slog.Bool("metrics", reg != nil))
	return httpapi.Serve(ctx, listener, mux, logger)
}

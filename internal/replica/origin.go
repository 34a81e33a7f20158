// Package replica distributes epoch stores across machines: the periodic
// re-publication of M' (internal/epoch) assumed a shared filesystem
// between publisher and serving nodes, which no real fleet has. An
// Origin serves a store read-only over HTTP; a Mirror on each serving
// node pulls newly published epochs into a local store — resumable
// ranged downloads, verified end to end against the manifest before the
// atomic rename that makes them visible — and the existing epoch.Watcher
// swap path takes over unchanged. A tampered, torn, or half-transferred
// epoch therefore can never be served: it fails verification before the
// local CURRENT pointer ever moves.
//
// The origin API is three read-only routes:
//
//	GET /v1/epochs/current         → {"epoch": n}
//	GET /v1/epochs/{n}/manifest    → the epoch's manifest.eppi (CRC-framed)
//	GET /v1/epochs/{n}/files/{f}   → a member file, ranged, ETag = manifest checksum
//
// Only manifest-listed shard snapshots and the public privacy report are
// served; the operator-only privacy detail never leaves the origin host.
package replica

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/epoch"
	"repro/internal/httpapi"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/shard"
)

// Origin serves an epoch store read-only over HTTP. It holds no state
// beyond the store path: every request re-reads the store, so a publish
// by eppi-construct against the same directory is visible to mirrors on
// their next poll with no coordination.
type Origin struct {
	root   string
	mux    *http.ServeMux
	logger *slog.Logger

	requests *metrics.Counter // eppi_origin_requests_total (nil without metrics)
	sent     *metrics.Counter // eppi_origin_bytes_total (nil without metrics)
}

var _ http.Handler = (*Origin)(nil)

// OriginOption configures an Origin.
type OriginOption func(*Origin)

// WithOriginMetrics counts requests and bytes served into reg.
func WithOriginMetrics(reg *metrics.Registry) OriginOption {
	return func(o *Origin) {
		if reg == nil {
			return
		}
		o.requests = reg.Counter("eppi_origin_requests_total",
			"Replication origin HTTP requests.")
		o.sent = reg.Counter("eppi_origin_bytes_total",
			"Bytes of epoch data served to mirrors.")
	}
}

// WithOriginLogger routes rejection logs to logger; nil discards.
func WithOriginLogger(logger *slog.Logger) OriginOption {
	return func(o *Origin) { o.logger = logger }
}

// NewOrigin serves the epoch store at root.
func NewOrigin(root string, opts ...OriginOption) *Origin {
	o := &Origin{root: root, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(o)
	}
	if o.logger == nil {
		o.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	o.mux.HandleFunc("GET /v1/epochs/current", o.handleCurrent)
	o.mux.HandleFunc("GET /v1/epochs/{epoch}/manifest", o.handleManifest)
	o.mux.HandleFunc("GET /v1/epochs/{epoch}/files/{name}", o.handleFile)
	o.mux.HandleFunc("GET /v1/healthz", o.handleHealthz)
	return o
}

// ServeHTTP implements http.Handler.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if o.requests != nil {
		o.requests.Inc()
	}
	o.mux.ServeHTTP(w, r)
}

// CurrentResponse is the /v1/epochs/current payload.
type CurrentResponse struct {
	Epoch uint64 `json:"epoch"`
}

func (o *Origin) handleCurrent(w http.ResponseWriter, r *http.Request) {
	n, err := epoch.Current(o.root)
	if err != nil {
		if errors.Is(err, epoch.ErrNoCurrent) {
			httpapi.WriteError(w, http.StatusNotFound, "nothing published")
			return
		}
		// A corrupted pointer is an operator problem on the origin host;
		// mirrors must not mistake it for "no new epoch".
		o.logger.Warn("origin CURRENT unreadable", slog.Any("error", err))
		httpapi.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, CurrentResponse{Epoch: n})
}

func (o *Origin) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n, err := epoch.Current(o.root)
	if err != nil && !errors.Is(err, epoch.ErrNoCurrent) {
		httpapi.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}{Status: "ok", Epoch: n})
}

// epochParam parses the {epoch} path segment and resolves the epoch's
// directory, rejecting numbers that do not name a published epoch.
func (o *Origin) epochParam(w http.ResponseWriter, r *http.Request) (uint64, string, bool) {
	n, err := strconv.ParseUint(r.PathValue("epoch"), 10, 64)
	if err != nil || n == 0 {
		httpapi.WriteError(w, http.StatusBadRequest, "bad epoch number")
		return 0, "", false
	}
	dir := epoch.Dir(o.root, n)
	if _, err := os.Stat(filepath.Join(dir, shard.ManifestName)); err != nil {
		httpapi.WriteError(w, http.StatusNotFound, fmt.Sprintf("epoch %d not published", n))
		return 0, "", false
	}
	return n, dir, true
}

// EpochETag is the cache validator stamped on every manifest and file
// response of an epoch: the CRC-32 of the manifest file itself. Epoch
// directories are immutable once published, so the manifest checksum
// identifies the entire content of the epoch — a mirror resuming a
// download sends it back via If-Range and gets a clean restart (200)
// instead of a corrupt splice if the origin's epoch somehow changed.
func EpochETag(dir string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, shard.ManifestName))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%q", fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(raw))), nil
}

func (o *Origin) handleManifest(w http.ResponseWriter, r *http.Request) {
	_, dir, ok := o.epochParam(w, r)
	if !ok {
		return
	}
	o.serveStoreFile(w, r, dir, shard.ManifestName)
}

func (o *Origin) handleFile(w http.ResponseWriter, r *http.Request) {
	n, dir, ok := o.epochParam(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if !o.servable(dir, name) {
		// One answer for traversal attempts, the operator-only detail
		// document, and genuinely absent files: nothing to enumerate.
		o.logger.Warn("origin refused file request",
			slog.Uint64("epoch", n), slog.String("name", name))
		httpapi.WriteError(w, http.StatusNotFound, "no such file")
		return
	}
	o.serveStoreFile(w, r, dir, name)
}

// servable reports whether name is a file the origin may hand out: a
// manifest-listed shard snapshot or the public privacy report. Anything
// else — privacy_detail.json above all — stays on the origin host. The
// whitelist doubles as path sanitization: served names can only ever be
// names the manifest carries.
func (o *Origin) servable(dir, name string) bool {
	if name == privacy.FileName {
		return true
	}
	man, err := shard.ReadManifest(dir)
	if err != nil {
		return false
	}
	for _, sf := range man.Files {
		if sf.Name == name {
			return true
		}
	}
	return false
}

// serveStoreFile serves one epoch-store file with range support (a mirror
// resumes interrupted downloads with Range: bytes=off-) and the epoch's
// ETag so If-Range can detect a changed origin.
func (o *Origin) serveStoreFile(w http.ResponseWriter, r *http.Request, dir, name string) {
	etag, err := EpochETag(dir)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		httpapi.WriteError(w, http.StatusNotFound, "no such file")
		return
	}
	defer f.Close()
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{ResponseWriter: w}
	// ServeContent handles Range, If-Range and the 206/416 status dance;
	// the zero modtime suppresses Last-Modified (the ETag is the
	// validator — file mtimes don't survive mirroring anyway).
	http.ServeContent(cw, r, "", time.Time{}, f)
	if o.sent != nil {
		o.sent.Add(uint64(cw.n))
	}
}

// countingWriter counts response body bytes for eppi_origin_bytes_total.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

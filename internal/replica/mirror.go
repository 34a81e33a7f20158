package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/epoch"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Mirror defaults, overridable per field.
const (
	// DefaultRetries is the number of re-attempts per HTTP operation
	// after the first try.
	DefaultRetries = 3
	// DefaultBackoff is the first backoff interval; each retry doubles it.
	DefaultBackoff = 100 * time.Millisecond
	// DefaultBackoffCap bounds the grown backoff interval.
	DefaultBackoffCap = 2 * time.Second
)

// ErrOriginRegressed reports an origin whose current epoch is lower than
// the mirror's — a rolled-back or restored origin store. The mirror never
// follows it backwards: local epochs stay, the node keeps serving.
var ErrOriginRegressed = errors.New("replica: origin epoch regressed")

// Mirror pulls newly published epochs from an Origin into a local epoch
// store. Every transfer is resumable (ranged GETs against the origin's
// immutable epoch files) and every epoch is verified whole — manifest
// parse, epoch-number agreement, per-file size and CRC — before the
// atomic rename and CURRENT flip that make it visible to the local
// epoch.Watcher. A failed or tampered download therefore leaves the
// local store exactly as it was, partial files parked invisibly under a
// dot-temp directory for the next attempt to resume.
type Mirror struct {
	// Origin is the origin server's base URL (e.g. "http://host:9000").
	Origin string
	// Root is the local epoch store directory (created on first sync).
	Root string
	// Client issues the HTTP requests; nil uses a default client. The
	// client should have no global timeout — transfers are bounded by ctx
	// and the per-request plumbing, and a large epoch at a low bandwidth
	// limit legitimately takes minutes.
	Client *http.Client
	// Period is the current-epoch poll interval for Run; 0 means
	// epoch.DefaultPollPeriod. Each tick is jittered ±10%.
	Period time.Duration
	// Limit caps download bandwidth in bytes/second; 0 is unlimited.
	Limit int64
	// Keep, when positive, prunes the local cache to the newest Keep
	// epochs after each successful sync — the mirrored store obeys the
	// same retention policy as the origin's publisher.
	Keep int
	// Retries / Backoff / BackoffCap shape the per-operation retry loop;
	// zero values take the Default* constants.
	Retries    int
	Backoff    time.Duration
	BackoffCap time.Duration
	// Registry receives the replication metrics; nil disables them.
	Registry *metrics.Registry
	// Tracer records replica.sync / replica.fetch spans; nil disables.
	Tracer *trace.Tracer
	// Logger receives sync and rejection logs; nil discards.
	Logger *slog.Logger

	bytesC *metrics.Counter   // eppi_replica_bytes_total
	fetchH *metrics.Histogram // eppi_replica_fetch_seconds
	failC  *metrics.Counter   // eppi_replica_failures_total
	lagG   *metrics.Gauge     // eppi_replica_lag_epochs

	// sleep is the interruptible sleep used by the bandwidth limiter and
	// retry backoff; tests inject a recorder. nil means sleepCtx.
	sleep func(ctx context.Context, d time.Duration) error
}

// init lazily resolves defaults and metric series; called by every
// public entry point.
func (m *Mirror) init() {
	if m.Client == nil {
		m.Client = &http.Client{}
	}
	if m.Period <= 0 {
		m.Period = epoch.DefaultPollPeriod
	}
	if m.Retries <= 0 {
		m.Retries = DefaultRetries
	}
	if m.Backoff <= 0 {
		m.Backoff = DefaultBackoff
	}
	if m.BackoffCap <= 0 {
		m.BackoffCap = DefaultBackoffCap
	}
	if m.Logger == nil {
		m.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if m.sleep == nil {
		m.sleep = sleepCtx
	}
	if m.Registry != nil && m.bytesC == nil {
		m.bytesC = m.Registry.Counter("eppi_replica_bytes_total",
			"Bytes downloaded from the replication origin.")
		m.fetchH = m.Registry.Histogram("eppi_replica_fetch_seconds",
			"Per-file replication fetch latency.", metrics.DefDurationBuckets)
		m.failC = m.Registry.Counter("eppi_replica_failures_total",
			"Failed replication sync attempts (fetch errors, verification rejects).")
		m.lagG = m.Registry.Gauge("eppi_replica_lag_epochs",
			"Epochs the local store trails the origin by.")
	}
}

// Run polls the origin until ctx is cancelled, mirroring each newly
// published epoch into the local store. Failures are logged and counted;
// the next (jittered) tick retries, resuming any partial transfer.
func (m *Mirror) Run(ctx context.Context) {
	m.init()
	timer := time.NewTimer(epoch.Jitter(m.Period))
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			if _, err := m.Sync(ctx); err != nil && ctx.Err() == nil {
				m.Logger.Warn("replica sync failed", slog.Any("error", err))
			}
			timer.Reset(epoch.Jitter(m.Period))
		}
	}
}

// WaitReady blocks until the local store has a loadable CURRENT epoch,
// syncing from the origin as needed — the boot path of a node with an
// empty cache. It returns the epoch the store holds.
func (m *Mirror) WaitReady(ctx context.Context) (uint64, error) {
	m.init()
	for {
		if n, err := epoch.Current(m.Root); err == nil {
			return n, nil
		}
		if _, err := m.Sync(ctx); err != nil {
			m.Logger.Warn("replica initial sync failed, retrying",
				slog.String("origin", m.Origin), slog.Any("error", err))
			if err := m.sleep(ctx, epoch.Jitter(m.Period)); err != nil {
				return 0, fmt.Errorf("replica: initial sync: %w", err)
			}
		}
		if ctx.Err() != nil {
			return 0, fmt.Errorf("replica: initial sync: %w", ctx.Err())
		}
	}
}

// Sync performs one replication pass: poll the origin's current epoch
// and, if it is ahead of the local store, download and verify it, then
// flip the local CURRENT. It returns the epoch synced (0 when the store
// was already current). Failures count into eppi_replica_failures_total;
// the local store is never left in a state the Watcher could mis-serve.
func (m *Mirror) Sync(ctx context.Context) (uint64, error) {
	m.init()
	remote, err := m.fetchCurrent(ctx)
	if err != nil {
		m.fail()
		return 0, err
	}
	local := uint64(0)
	switch n, err := epoch.Current(m.Root); {
	case err == nil:
		local = n
	case errors.Is(err, epoch.ErrNoCurrent):
		// Empty cache: mirror from scratch.
	default:
		// A corrupted local pointer needs an operator; overwriting it
		// from here could renumber a live node's store underneath it.
		m.fail()
		return 0, err
	}
	if remote > local {
		m.setLag(remote - local)
	} else {
		m.setLag(0)
	}
	if remote == local {
		return 0, nil
	}
	if remote < local {
		// Never follow an origin backwards; the Watcher has the same
		// guard, but the mirror refusing first keeps the cache intact.
		m.Logger.Warn("origin CURRENT behind local store, not syncing",
			slog.Uint64("local", local), slog.Uint64("origin", remote))
		return 0, fmt.Errorf("%w: origin %d, local %d", ErrOriginRegressed, remote, local)
	}

	var sp *trace.Span
	if m.Tracer != nil {
		ctx, sp = m.Tracer.StartRoot(ctx, "replica.sync")
		sp.SetUint("from_epoch", local)
		sp.SetUint("to_epoch", remote)
		defer sp.End()
	}
	if err := m.fetchEpoch(ctx, sp, remote); err != nil {
		sp.Set("outcome", "failed")
		sp.Set("error", err.Error())
		m.fail()
		return 0, err
	}
	if err := epoch.SetCurrent(m.Root, remote); err != nil {
		sp.Set("outcome", "failed")
		m.fail()
		return 0, err
	}
	m.setLag(0)
	sp.Set("outcome", "synced")
	m.Logger.Info("epoch mirrored",
		slog.Uint64("epoch", remote), slog.String("origin", m.Origin))
	m.cleanupTemp(remote)
	if removed, err := epoch.Prune(m.Root, m.Keep); err != nil {
		m.Logger.Warn("local cache retention failed", slog.Any("error", err))
	} else if len(removed) > 0 {
		m.Logger.Info("local cache pruned", slog.Any("epochs", removed))
	}
	return remote, nil
}

func (m *Mirror) fail() {
	if m.failC != nil {
		m.failC.Inc()
	}
}

func (m *Mirror) setLag(n uint64) {
	if m.lagG != nil {
		m.lagG.Set(float64(n))
	}
}

// tempDir is the in-flight download directory for epoch n. Like the
// publisher's .publish- prefix, the dot name guarantees epoch.Dir can
// never resolve to it, so a torn download is invisible to the Watcher —
// and it persists across attempts, which is what makes resume work.
func (m *Mirror) tempDir(n uint64) string {
	return filepath.Join(m.Root, epoch.EpochsDir, fmt.Sprintf(".mirror-%06d", n))
}

// cleanupTemp removes stale .mirror-* assembly dirs (any epoch ≤ the one
// just synced: their partials can never be useful again).
func (m *Mirror) cleanupTemp(synced uint64) {
	entries, err := os.ReadDir(filepath.Join(m.Root, epoch.EpochsDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), ".mirror-%d", &n); err == nil && n <= synced {
			_ = os.RemoveAll(filepath.Join(m.Root, epoch.EpochsDir, e.Name()))
		}
	}
}

// fetchEpoch downloads epoch n into the dot-temp dir, verifies the
// complete set, and renames it into place. On any error the temp dir is
// left behind for the next attempt to resume (minus files that failed
// verification, which are deleted so they re-download cleanly).
func (m *Mirror) fetchEpoch(ctx context.Context, sp *trace.Span, n uint64) error {
	tmp := m.tempDir(n)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	// The manifest is small and is the root of trust for everything else:
	// always fetch it fresh rather than resuming a stale partial.
	manifestURL := fmt.Sprintf("%s/v1/epochs/%d/manifest", m.Origin, n)
	manPath := filepath.Join(tmp, shard.ManifestName)
	if err := os.RemoveAll(manPath); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	if err := m.download(ctx, sp, manifestURL, manPath, "", fileSpec{}); err != nil {
		return err
	}
	man, err := shard.ReadManifest(tmp)
	if err != nil {
		_ = os.Remove(manPath)
		return fmt.Errorf("replica: epoch %d: %w", n, err)
	}
	if man.Epoch != n {
		_ = os.Remove(manPath)
		return fmt.Errorf("replica: origin served manifest for epoch %d as epoch %d", man.Epoch, n)
	}
	etag, err := EpochETag(tmp)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	for _, sf := range man.Files {
		url := fmt.Sprintf("%s/v1/epochs/%d/files/%s", m.Origin, n, sf.Name)
		if err := m.download(ctx, sp, url, filepath.Join(tmp, sf.Name), etag,
			fileSpec{size: sf.Size, crc: sf.CRC32, known: true}); err != nil {
			return err
		}
	}
	// The privacy report is advisory but still verified: a tampered
	// report is dropped (the node serves the epoch report-less), it is
	// never installed.
	m.fetchReport(ctx, sp, n, tmp, etag)
	// Belt and braces before the rename: re-verify the assembled set as
	// one unit, exactly the check epoch.LoadAt will repeat at swap time.
	if err := man.Verify(tmp); err != nil {
		return fmt.Errorf("replica: epoch %d failed verification: %w", n, err)
	}
	final := epoch.Dir(m.Root, n)
	if err := os.RemoveAll(final); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	return nil
}

// fetchReport pulls epochs/<n>/privacy.json if the origin has one.
// Absence and verification failure both leave the epoch report-less.
func (m *Mirror) fetchReport(ctx context.Context, sp *trace.Span, n uint64, tmp, etag string) {
	url := fmt.Sprintf("%s/v1/epochs/%d/files/%s", m.Origin, n, privacy.FileName)
	path := filepath.Join(tmp, privacy.FileName)
	_ = os.Remove(path)
	if err := m.download(ctx, sp, url, path, etag, fileSpec{}); err != nil {
		if !errors.Is(err, errNotFound) {
			m.Logger.Warn("privacy report fetch failed, mirroring epoch without it",
				slog.Uint64("epoch", n), slog.Any("error", err))
		}
		_ = os.Remove(path)
		return
	}
	rep, err := privacy.ReadFile(tmp)
	if err != nil || rep.Epoch != n {
		m.Logger.Warn("mirrored privacy report rejected",
			slog.Uint64("epoch", n), slog.Any("error", err))
		_ = os.Remove(path)
	}
}

// fileSpec carries the manifest's expectation for a downloaded file.
type fileSpec struct {
	size  int64
	crc   uint32
	known bool
}

// errNotFound reports a 404 from the origin — permanent, not retried.
var errNotFound = errors.New("replica: origin has no such file")

// download fetches url into path, resuming a partial file with a ranged
// GET, throttling to the bandwidth limit, and retrying transient
// failures with capped jittered backoff. When spec.known, the completed
// file must match the manifest's size and CRC or it is deleted and the
// download fails.
func (m *Mirror) download(ctx context.Context, parent *trace.Span, url, path, etag string, spec fileSpec) error {
	// Already complete from a previous attempt? Verify and skip.
	if spec.known {
		if info, err := os.Stat(path); err == nil && info.Size() == spec.size {
			if sum, err := checksumFile(path); err == nil && sum.matches(spec) {
				return nil
			}
			// Wrong content at the right size: re-download from scratch.
			_ = os.Remove(path)
		}
	}
	backoff := m.Backoff
	for attempt := 0; ; attempt++ {
		err := m.downloadOnce(ctx, parent, url, path, etag, spec)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, errNotFound), ctx.Err() != nil, attempt >= m.Retries:
			return err
		}
		m.Logger.Warn("replica fetch attempt failed, backing off",
			slog.String("url", url), slog.Int("attempt", attempt+1), slog.Any("error", err))
		if serr := m.sleepJittered(ctx, backoff); serr != nil {
			return err
		}
		if backoff *= 2; backoff > m.BackoffCap {
			backoff = m.BackoffCap
		}
	}
}

// downloadOnce is one transfer attempt: ranged when a partial exists,
// full otherwise.
func (m *Mirror) downloadOnce(ctx context.Context, parent *trace.Span, url, path, etag string, spec fileSpec) (err error) {
	start := time.Now()
	var offset int64
	if info, serr := os.Stat(path); serr == nil {
		offset = info.Size()
		if spec.known && offset > spec.size {
			// Longer than the manifest says it can be: garbage, restart.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("replica: %w", err)
			}
			offset = 0
		}
	}
	var sp *trace.Span
	if parent != nil {
		sp = parent.Child("replica.fetch")
		sp.Set("url", url)
		sp.SetInt("resume_offset", int(offset))
		defer func() {
			if err != nil {
				sp.Set("error", err.Error())
			}
			sp.End()
		}()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	if offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
		if etag != "" {
			// If the origin's epoch content changed (it never should —
			// epochs are immutable) If-Range downgrades to a clean full
			// response instead of splicing two versions together.
			req.Header.Set("If-Range", etag)
		}
	}
	resp, err := m.Client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	defer resp.Body.Close()
	flags := os.O_RDWR | os.O_CREATE
	switch resp.StatusCode {
	case http.StatusPartialContent:
		flags |= os.O_APPEND
	case http.StatusOK:
		flags |= os.O_TRUNC
		offset = 0
	case http.StatusNotFound:
		return errNotFound
	case http.StatusRequestedRangeNotSatisfiable:
		// Our partial confused the origin; drop it and let the retry
		// start over.
		_ = os.Remove(path)
		return fmt.Errorf("replica: %s: range not satisfiable at offset %d", url, offset)
	default:
		return fmt.Errorf("replica: %s: status %d", url, resp.StatusCode)
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	// The file's size and CRC are taken on the way through: a resumed
	// transfer streams its on-disk prefix first, then the appended bytes.
	var sum checksum
	var n int64
	if _, err = io.Copy(&sum, io.NewSectionReader(f, 0, offset)); err == nil {
		n, err = io.Copy(io.MultiWriter(f, &sum), m.throttled(ctx, resp.Body))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if m.bytesC != nil {
		m.bytesC.Add(uint64(n))
	}
	if m.fetchH != nil {
		m.fetchH.ObserveSince(start)
	}
	sp.SetInt("bytes", int(n))
	if err != nil {
		// Keep the partial: whatever arrived extends the resume point.
		return fmt.Errorf("replica: %s: %w", url, err)
	}
	if spec.known && !sum.matches(spec) {
		// Tampered or torn content can't be resumed from — delete so
		// the next attempt starts clean.
		_ = os.Remove(path)
		return fmt.Errorf("replica: %s: downloaded %d bytes crc %08x, manifest says %d bytes crc %08x",
			url, sum.size, sum.crc, spec.size, spec.crc)
	}
	return nil
}

// checksum is an io.Writer that keeps the length and IEEE CRC-32 of the
// bytes written to it.
type checksum struct {
	size int64
	crc  uint32
}

func (c *checksum) Write(p []byte) (int, error) {
	c.size += int64(len(p))
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return len(p), nil
}

// matches reports whether the checksummed bytes are the file spec names.
func (c *checksum) matches(spec fileSpec) bool {
	return c.size == spec.size && c.crc == spec.crc
}

// checksumFile streams the file at path through a checksum.
func checksumFile(path string) (checksum, error) {
	var sum checksum
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	_, err = io.Copy(&sum, f)
	return sum, err
}

// fetchCurrent asks the origin for its current epoch, retrying transient
// failures.
func (m *Mirror) fetchCurrent(ctx context.Context) (uint64, error) {
	backoff := m.Backoff
	for attempt := 0; ; attempt++ {
		n, err := m.fetchCurrentOnce(ctx)
		switch {
		case err == nil:
			return n, nil
		case ctx.Err() != nil, attempt >= m.Retries:
			return 0, err
		}
		if serr := m.sleepJittered(ctx, backoff); serr != nil {
			return 0, err
		}
		if backoff *= 2; backoff > m.BackoffCap {
			backoff = m.BackoffCap
		}
	}
}

func (m *Mirror) fetchCurrentOnce(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(m.Origin, "/")+"/v1/epochs/current", nil)
	if err != nil {
		return 0, fmt.Errorf("replica: %w", err)
	}
	resp, err := m.Client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("replica: current: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("replica: current: status %d", resp.StatusCode)
	}
	var cur CurrentResponse
	if err := decodeJSON(resp.Body, &cur); err != nil {
		return 0, fmt.Errorf("replica: current: %w", err)
	}
	if cur.Epoch == 0 {
		return 0, fmt.Errorf("replica: origin reports epoch 0")
	}
	return cur.Epoch, nil
}

// throttled wraps r in the bandwidth limiter when one is configured.
func (m *Mirror) throttled(ctx context.Context, r io.Reader) io.Reader {
	if m.Limit <= 0 {
		return r
	}
	return &throttleReader{r: r, ctx: ctx, limit: m.Limit, start: time.Now(), sleep: m.sleep}
}

// throttleReader paces reads to at most limit bytes/second by sleeping
// off any time the transfer is running ahead of its budget. Sleeps honor
// ctx, so cancellation cuts a throttled transfer short immediately.
type throttleReader struct {
	r     io.Reader
	ctx   context.Context
	limit int64
	start time.Time
	read  int64
	sleep func(ctx context.Context, d time.Duration) error
}

// throttleChunk bounds one read so pacing stays smooth instead of
// bursting a whole buffer and sleeping for seconds.
const throttleChunk = 32 << 10

func (t *throttleReader) Read(p []byte) (int, error) {
	if len(p) > throttleChunk {
		p = p[:throttleChunk]
	}
	n, err := t.r.Read(p)
	t.read += int64(n)
	// The wall-clock this many bytes should take at the limit; sleep off
	// any surplus speed.
	due := time.Duration(float64(t.read) / float64(t.limit) * float64(time.Second))
	if ahead := due - time.Since(t.start); ahead > 0 {
		if serr := t.sleep(t.ctx, ahead); serr != nil && err == nil {
			err = serr
		}
	}
	return n, err
}

// sleepCtx sleeps d, returning early with the context error on
// cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
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

// sleepJittered sleeps a uniformly random duration in [d/2, d) through
// the mirror's (injectable) sleeper.
func (m *Mirror) sleepJittered(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	return m.sleep(ctx, d/2+time.Duration(rand.Int64N(int64(d/2)+1)))
}

// decodeJSON decodes a bounded JSON body.
func decodeJSON(r io.Reader, v any) error {
	raw, err := io.ReadAll(io.LimitReader(r, 1<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

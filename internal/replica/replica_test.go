package replica

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/index"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/shard"
	"repro/internal/workload"
)

// buildIndex constructs a real published index for store tests.
func buildIndex(t *testing.T, providers, owners int, seed int64) (*bitmat.Matrix, []string) {
	t.Helper()
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: providers, Owners: owners, Exponent: 1.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Construct(d.Matrix, d.Eps, core.Config{
		Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Published, d.Names
}

// publishEpoch adds one epoch to the store at root.
func publishEpoch(t *testing.T, root string, providers, owners int, seed int64, shards int) uint64 {
	t.Helper()
	published, names := buildIndex(t, providers, owners, seed)
	pub := epoch.Publisher{Root: root}
	n, err := pub.Publish(published, names, shards)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestOriginCurrentAndHealthz(t *testing.T) {
	root := t.TempDir()
	srv := httptest.NewServer(NewOrigin(root))
	defer srv.Close()

	// Nothing published: current 404s, healthz still answers (epoch 0).
	if code := getJSON(t, srv.URL+"/v1/epochs/current", nil); code != http.StatusNotFound {
		t.Fatalf("current on empty store = %d, want 404", code)
	}
	var hz struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}
	if code := getJSON(t, srv.URL+"/v1/healthz", &hz); code != http.StatusOK || hz.Status != "ok" || hz.Epoch != 0 {
		t.Fatalf("healthz on empty store = %d %+v", code, hz)
	}

	publishEpoch(t, root, 10, 8, 1, 1)
	var cur CurrentResponse
	if code := getJSON(t, srv.URL+"/v1/epochs/current", &cur); code != http.StatusOK || cur.Epoch != 1 {
		t.Fatalf("current = %d %+v, want 200 epoch 1", code, cur)
	}

	// A corrupted pointer is surfaced as a server error, not "no epoch".
	if err := os.WriteFile(filepath.Join(root, epoch.CurrentName), []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv.URL+"/v1/epochs/current", nil); code != http.StatusInternalServerError {
		t.Fatalf("current over corrupted pointer = %d, want 500", code)
	}
}

func TestOriginServesRangedFiles(t *testing.T) {
	root := t.TempDir()
	publishEpoch(t, root, 12, 10, 1, 2)
	srv := httptest.NewServer(NewOrigin(root))
	defer srv.Close()

	dir := epoch.Dir(root, 1)
	want, err := os.ReadFile(filepath.Join(dir, shard.FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL + "/v1/epochs/1/files/" + shard.FileName(0)

	// Full fetch: whole file, ETag present.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(got) != string(want) {
		t.Fatalf("full fetch: status %d, %d bytes, want %d", resp.StatusCode, len(got), len(want))
	}
	etag := resp.Header.Get("ETag")
	wantTag, err := EpochETag(dir)
	if err != nil {
		t.Fatal(err)
	}
	if etag != wantTag {
		t.Fatalf("ETag %q, want manifest checksum %q", etag, wantTag)
	}

	// Ranged fetch resumes mid-file.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Range", "bytes=100-")
	req.Header.Set("If-Range", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged fetch status %d, want 206", resp.StatusCode)
	}
	if string(got) != string(want[100:]) {
		t.Fatalf("ranged fetch returned %d bytes, want the %d-byte tail", len(got), len(want)-100)
	}

	// A stale If-Range validator downgrades to a full 200 — the mirror
	// must never splice bytes of two different epochs together.
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Range", "bytes=100-")
	req.Header.Set("If-Range", `"crc32:00000000"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(got) != len(want) {
		t.Fatalf("stale If-Range: status %d, %d bytes, want full 200", resp.StatusCode, len(got))
	}

	// The manifest route serves the manifest bytes.
	manWant, err := os.ReadFile(filepath.Join(dir, shard.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/epochs/1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(got) != string(manWant) {
		t.Fatalf("manifest fetch: status %d, %d bytes, want %d", resp.StatusCode, len(got), len(manWant))
	}
}

func TestOriginRefusesNonServableFiles(t *testing.T) {
	root := t.TempDir()
	publishEpoch(t, root, 10, 8, 1, 1)
	// Plant an operator-only detail file and a stray secret in the epoch
	// dir: neither may ever travel.
	dir := epoch.Dir(root, 1)
	for _, name := range []string{privacy.DetailFileName, "secrets.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("operator-only"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewOrigin(root))
	defer srv.Close()

	for _, name := range []string{
		privacy.DetailFileName, // never served over HTTP, by design
		"secrets.txt",          // not manifest-listed
		"shard-999.idx",        // plausible name, not in the set
		"..%2FCURRENT",         // traversal out of the epoch dir
		"..%2F..%2FCURRENT",
	} {
		code := getJSON(t, srv.URL+"/v1/epochs/1/files/"+name, nil)
		if code == http.StatusOK {
			t.Errorf("origin served %q", name)
		}
	}
	// Unknown epochs and malformed numbers are rejected.
	if code := getJSON(t, srv.URL+"/v1/epochs/99/manifest", nil); code != http.StatusNotFound {
		t.Errorf("unknown epoch manifest = %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/v1/epochs/zero/manifest", nil); code != http.StatusBadRequest {
		t.Errorf("bad epoch number = %d, want 400", code)
	}
}

// mirrorTo returns a mirror of originURL into a fresh local store with
// test-friendly retry pacing.
func mirrorTo(t *testing.T, originURL string) (*Mirror, string, *metrics.Registry) {
	t.Helper()
	local := t.TempDir()
	reg := metrics.NewRegistry()
	m := &Mirror{
		Origin:   originURL,
		Root:     local,
		Registry: reg,
		Retries:  2,
		Backoff:  5 * time.Millisecond,
	}
	return m, local, reg
}

func counterValue(reg *metrics.Registry, name, help string) uint64 {
	return reg.Counter(name, help).Value()
}

func TestMirrorSyncFromScratch(t *testing.T) {
	root := t.TempDir()
	publishEpoch(t, root, 15, 12, 1, 2)
	srv := httptest.NewServer(NewOrigin(root))
	defer srv.Close()

	m, local, reg := mirrorTo(t, srv.URL)
	n, err := m.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Sync = epoch %d, want 1", n)
	}
	// The mirrored store is a real epoch store: both shards load and the
	// privacy report came along verified.
	for k := 0; k < 2; k++ {
		is, got, err := epoch.Load(local, k, 2)
		if err != nil {
			t.Fatalf("mirrored shard %d: %v", k, err)
		}
		if got != 1 || is.Epoch() != 1 {
			t.Fatalf("mirrored shard %d at epoch %d/%d", k, got, is.Epoch())
		}
	}
	if counterValue(reg, "eppi_replica_bytes_total", "") == 0 {
		t.Error("no bytes counted")
	}
	if counterValue(reg, "eppi_replica_failures_total", "") != 0 {
		t.Error("clean sync counted a failure")
	}
	// A second pass is a no-op.
	if n, err := m.Sync(context.Background()); err != nil || n != 0 {
		t.Fatalf("second Sync = %d, %v, want no-op", n, err)
	}
}

func TestMirrorSyncsPrivacyReport(t *testing.T) {
	root := t.TempDir()
	published, names := buildIndex(t, 15, 12, 1)
	rep := &privacy.Report{Version: privacy.Version, Identities: len(names), Providers: 15}
	pub := epoch.Publisher{Root: root}
	if _, err := pub.PublishWithReport(published, names, 1, rep, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewOrigin(root))
	defer srv.Close()

	m, local, _ := mirrorTo(t, srv.URL)
	if _, err := m.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := epoch.LoadReportAt(local, 1)
	if err != nil {
		t.Fatalf("mirrored store has no verified report: %v", err)
	}
	if got.Identities != len(names) {
		t.Fatalf("mirrored report identities = %d, want %d", got.Identities, len(names))
	}
}

func TestMirrorResumesPartialDownload(t *testing.T) {
	root := t.TempDir()
	publishEpoch(t, root, 15, 12, 1, 1)
	dir := epoch.Dir(root, 1)
	full, err := os.ReadFile(filepath.Join(dir, shard.FileName(0)))
	if err != nil {
		t.Fatal(err)
	}

	// Record the Range header of every shard-file request.
	var mu sync.Mutex
	var ranges []string
	origin := NewOrigin(root)
	rec := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/files/"+shard.FileName(0)) {
			mu.Lock()
			ranges = append(ranges, r.Header.Get("Range"))
			mu.Unlock()
		}
		origin.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(rec)
	defer srv.Close()

	m, local, _ := mirrorTo(t, srv.URL)
	// Park a half-transferred file where a killed mid-transfer mirror
	// would have left it.
	half := int64(len(full) / 2)
	tmp := m.tempDir(1)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, shard.FileName(0)), full[:half], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := m.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ranges) != 1 || !strings.HasPrefix(ranges[0], "bytes=") {
		t.Fatalf("shard requests %v, want exactly one ranged GET", ranges)
	}
	wantRange := "bytes=" + strconv.FormatInt(half, 10) + "-"
	if ranges[0] != wantRange {
		t.Fatalf("resume range %q, want %q", ranges[0], wantRange)
	}
	if _, _, err := epoch.Load(local, 0, 1); err != nil {
		t.Fatalf("resumed store unreadable: %v", err)
	}
	// The assembly dir is gone after a successful sync.
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp dir survived a successful sync: %v", err)
	}
}

func TestMirrorRejectsBitFlip(t *testing.T) {
	root := t.TempDir()
	publishEpoch(t, root, 15, 12, 1, 1)
	// Flip one bit in the origin's shard file — size unchanged, CRC not.
	path := filepath.Join(epoch.Dir(root, 1), shard.FileName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewOrigin(root))
	defer srv.Close()

	m, local, reg := mirrorTo(t, srv.URL)
	if _, err := m.Sync(context.Background()); err == nil {
		t.Fatal("bit-flipped epoch synced")
	}
	if counterValue(reg, "eppi_replica_failures_total", "") == 0 {
		t.Error("rejected sync not counted as failure")
	}
	// Nothing became visible: no CURRENT, no epoch dir.
	if _, err := epoch.Current(local); !errors.Is(err, epoch.ErrNoCurrent) {
		t.Fatalf("local CURRENT after rejected sync: %v", err)
	}
	if _, err := os.Stat(epoch.Dir(local, 1)); !os.IsNotExist(err) {
		t.Fatalf("rejected epoch dir visible: %v", err)
	}
	// The poisoned partial was deleted, so fixing the origin heals the
	// mirror on the next pass.
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := m.Sync(context.Background()); err != nil || n != 1 {
		t.Fatalf("post-fix Sync = %d, %v", n, err)
	}
}

// TestMirrorRejectsTamperedResumePrefix: a partial download whose
// on-disk prefix was altered at the same length is caught by the CRC the
// ranged transfer streams over that prefix, deleted, and re-fetched
// whole; a full-length altered file is caught before any request.
func TestMirrorRejectsTamperedResumePrefix(t *testing.T) {
	root := t.TempDir()
	publishEpoch(t, root, 15, 12, 1, 1)
	full, err := os.ReadFile(filepath.Join(epoch.Dir(root, 1), shard.FileName(0)))
	if err != nil {
		t.Fatal(err)
	}

	// Record the Range header of every shard-file request; while refuse
	// is set, whole-file requests fail, so the rejection is what the
	// first Sync ends on.
	var mu sync.Mutex
	var ranges []string
	refuse := true
	origin := NewOrigin(root)
	rec := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/files/"+shard.FileName(0)) {
			mu.Lock()
			ranges = append(ranges, r.Header.Get("Range"))
			fail := refuse && r.Header.Get("Range") == ""
			mu.Unlock()
			if fail {
				http.Error(w, "unavailable", http.StatusServiceUnavailable)
				return
			}
		}
		origin.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(rec)
	defer srv.Close()

	m, local, reg := mirrorTo(t, srv.URL)
	half := len(full) / 2
	prefix := append([]byte(nil), full[:half]...)
	prefix[half/2] ^= 0x01
	tmp := m.tempDir(1)
	partial := filepath.Join(tmp, shard.FileName(0))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(partial, prefix, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := m.Sync(context.Background()); err == nil {
		t.Fatal("epoch with a tampered resume prefix synced")
	}
	mu.Lock()
	if len(ranges) == 0 || ranges[0] != "bytes="+strconv.Itoa(half)+"-" {
		t.Fatalf("shard requests %v, want a resume from %d first", ranges, half)
	}
	for _, r := range ranges[1:] {
		if r != "" {
			t.Fatalf("shard requests %v: a retry resumed from the rejected prefix", ranges)
		}
	}
	refuse, ranges = false, nil
	mu.Unlock()
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Fatalf("rejected partial survived: %v", err)
	}
	if counterValue(reg, "eppi_replica_failures_total", "") == 0 {
		t.Error("rejected sync not counted as failure")
	}
	if _, err := epoch.Current(local); !errors.Is(err, epoch.ErrNoCurrent) {
		t.Fatalf("local CURRENT after rejected sync: %v", err)
	}

	// Same length as the real file, one bit off: not trusted as complete.
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 0x01
	if err := os.WriteFile(partial, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := m.Sync(context.Background()); err != nil || n != 1 {
		t.Fatalf("healing Sync = %d, %v", n, err)
	}
	mu.Lock()
	if len(ranges) != 1 || ranges[0] != "" {
		t.Fatalf("healing shard requests %v, want one whole-file GET", ranges)
	}
	mu.Unlock()
	got, err := os.ReadFile(filepath.Join(epoch.Dir(local, 1), shard.FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(full) {
		t.Fatal("healed shard differs from the origin's")
	}
	if _, _, err := epoch.Load(local, 0, 1); err != nil {
		t.Fatalf("healed store unreadable: %v", err)
	}
}

func TestMirrorRefusesRegressedOrigin(t *testing.T) {
	originRoot := t.TempDir()
	publishEpoch(t, originRoot, 15, 12, 1, 1)
	srv := httptest.NewServer(NewOrigin(originRoot))
	defer srv.Close()

	m, local, _ := mirrorTo(t, srv.URL)
	// The local store is ahead (epochs 1 and 2); the origin only has 1.
	pubLocal := epoch.Publisher{Root: local}
	published, names := buildIndex(t, 15, 12, 1)
	for i := 0; i < 2; i++ {
		if _, err := pubLocal.Publish(published, names, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Sync(context.Background()); !errors.Is(err, ErrOriginRegressed) {
		t.Fatalf("Sync against regressed origin = %v, want ErrOriginRegressed", err)
	}
	if n, err := epoch.Current(local); err != nil || n != 2 {
		t.Fatalf("local store moved: %d, %v", n, err)
	}
}

func TestMirrorRetention(t *testing.T) {
	root := t.TempDir()
	srv := httptest.NewServer(NewOrigin(root))
	defer srv.Close()

	m, local, _ := mirrorTo(t, srv.URL)
	m.Keep = 1
	for seed := int64(1); seed <= 3; seed++ {
		publishEpoch(t, root, 15, 12, seed, 1)
		if _, err := m.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := epoch.Current(local); err != nil || n != 3 {
		t.Fatalf("local Current = %d, %v", n, err)
	}
	for _, gone := range []uint64{1, 2} {
		if _, err := os.Stat(epoch.Dir(local, gone)); !os.IsNotExist(err) {
			t.Errorf("epoch %d survived Keep=1 retention", gone)
		}
	}
	if _, _, err := epoch.Load(local, 0, 1); err != nil {
		t.Fatalf("kept epoch unreadable: %v", err)
	}
}

func TestWatcherStaysOnRegressedMirroredStore(t *testing.T) {
	// The satellite's mirrored-store half: a node serving epoch 2 out of
	// a mirror cache whose CURRENT rolls back must stay put and warn.
	root := t.TempDir()
	srv := httptest.NewServer(NewOrigin(root))
	defer srv.Close()
	m, local, _ := mirrorTo(t, srv.URL)
	for seed := int64(1); seed <= 2; seed++ {
		publishEpoch(t, root, 15, 12, seed, 1)
		if _, err := m.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := epoch.SetCurrent(local, 1); err != nil {
		t.Fatal(err)
	}
	w := &epoch.Watcher{
		Root: local, Shard: 0, Of: 1, Period: 5 * time.Millisecond,
		OnSwap: func(*index.Server, uint64) error {
			t.Error("watcher swapped backwards on a mirrored store")
			return nil
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	w.Run(ctx, 2) // several polls over the regressed pointer, then done
}

func TestThrottleReaderPacing(t *testing.T) {
	// 64 KiB at 64 KiB/s: the pacing debt after the final chunk is the
	// full 1s budget. The sleeper is recorded, not performed, so the test
	// is fast; because the fake never actually passes time, each request
	// is the cumulative debt and only the largest one is meaningful.
	var maxSleep time.Duration
	payload := strings.Repeat("x", 64<<10)
	tr := &throttleReader{
		r:     strings.NewReader(payload),
		ctx:   context.Background(),
		limit: 64 << 10,
		start: time.Now(),
		sleep: func(_ context.Context, d time.Duration) error {
			if d > maxSleep {
				maxSleep = d
			}
			return nil
		},
	}
	n, err := io.Copy(io.Discard, tr)
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("copy = %d, %v", n, err)
	}
	if maxSleep < 500*time.Millisecond || maxSleep > 1500*time.Millisecond {
		t.Fatalf("throttle pacing debt %v for 1s of budget", maxSleep)
	}
}

func TestMirrorWaitReadyHonorsCancel(t *testing.T) {
	// No origin at all: WaitReady must give up when the context does,
	// not spin forever.
	m := &Mirror{
		Origin:  "http://127.0.0.1:1", // nothing listens there
		Root:    t.TempDir(),
		Retries: 1,
		Backoff: time.Millisecond,
		Period:  10 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := m.WaitReady(ctx); err == nil {
		t.Fatal("WaitReady succeeded with no origin")
	}
}

package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/index"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestCacheLRU(t *testing.T) {
	c := newCache(2, 0)
	c.put("a", lookupResult{providers: []int{1}})
	c.put("b", lookupResult{providers: []int{2}})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", lookupResult{providers: []int{3}}) // evicts b (a was touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being most recently used")
	}
	if got, ok := c.get("c"); !ok || got.providers[0] != 3 {
		t.Fatalf("c = %+v, %v", got, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestCacheDisabled(t *testing.T) {
	var c *cache = newCache(0, 0)
	c.put("a", lookupResult{})
	if _, ok := c.get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.len() != 0 {
		t.Fatal("disabled cache has length")
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := newCache(4, 25*time.Millisecond)
	c.put("a", lookupResult{providers: []int{1}})
	if _, ok := c.get("a"); !ok {
		t.Fatal("fresh entry missing")
	}
	time.Sleep(40 * time.Millisecond)
	if _, ok := c.get("a"); ok {
		t.Fatal("expired entry served")
	}
	if c.len() != 0 {
		t.Fatalf("len after expiry = %d, want 0 (get evicts)", c.len())
	}
	// A re-put after expiry is fresh again.
	c.put("a", lookupResult{providers: []int{2}})
	if got, ok := c.get("a"); !ok || got.providers[0] != 2 {
		t.Fatalf("re-put entry = %+v, %v", got, ok)
	}
}

func TestCachePurgeOtherEpochs(t *testing.T) {
	c := newCache(8, 0)
	c.put(cacheKey(1, "alice"), lookupResult{epoch: 1})
	c.put(cacheKey(1, "bob"), lookupResult{epoch: 1, notFound: true})
	c.put(cacheKey(2, "alice"), lookupResult{epoch: 2})
	c.purgeOtherEpochs(2)
	if c.len() != 1 {
		t.Fatalf("len after purge = %d, want 1", c.len())
	}
	if _, ok := c.get(cacheKey(1, "alice")); ok {
		t.Fatal("epoch-1 entry survived the purge")
	}
	if _, ok := c.get(cacheKey(1, "bob")); ok {
		t.Fatal("epoch-1 negative entry survived the purge")
	}
	if _, ok := c.get(cacheKey(2, "alice")); !ok {
		t.Fatal("current-epoch entry purged")
	}
}

// An upstream answer of an older epoch that lands after the purge — the
// lookup left before the swap and returned after it — stays out of the
// cache, through both put paths.
func TestCachePutAfterPurgeRefusesOlderEpoch(t *testing.T) {
	c := newCache(8, 0)
	c.purgeOtherEpochs(2)
	c.put(cacheKey(1, "alice"), lookupResult{epoch: 1})
	c.putBatch([]cachePut{
		{key: cacheKey(1, "bob"), val: lookupResult{epoch: 1, notFound: true}},
		{key: cacheKey(2, "bob"), val: lookupResult{epoch: 2}},
	})
	c.put(cacheKey(3, "carol"), lookupResult{epoch: 3})
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2 (epoch-1 puts refused)", c.len())
	}
	if _, ok := c.get(cacheKey(1, "alice")); ok {
		t.Fatal("epoch-1 put landed after the epoch-2 purge")
	}
	if _, ok := c.get(cacheKey(1, "bob")); ok {
		t.Fatal("epoch-1 batch put landed after the epoch-2 purge")
	}
	if _, ok := c.get(cacheKey(2, "bob")); !ok {
		t.Fatal("current-epoch batch put refused")
	}
	if _, ok := c.get(cacheKey(3, "carol")); !ok {
		t.Fatal("newer-epoch put refused")
	}
}

func TestCacheKeyScopesByEpoch(t *testing.T) {
	// Same owner, different epochs: distinct entries. An owner name that
	// starts with digits must not collide with another epoch's key space.
	c := newCache(8, 0)
	c.put(cacheKey(1, "alice"), lookupResult{epoch: 1, providers: []int{1}})
	c.put(cacheKey(2, "alice"), lookupResult{epoch: 2, providers: []int{2}})
	if got, _ := c.get(cacheKey(1, "alice")); len(got.providers) != 1 || got.providers[0] != 1 {
		t.Fatalf("epoch-1 entry = %+v", got)
	}
	if got, _ := c.get(cacheKey(2, "alice")); len(got.providers) != 1 || got.providers[0] != 2 {
		t.Fatalf("epoch-2 entry = %+v", got)
	}
	if cacheKey(1, "2alice") == cacheKey(12, "alice") {
		t.Fatal("epoch/owner boundary ambiguous")
	}
}

func TestFlightDeduplicates(t *testing.T) {
	f := newFlight()
	var calls atomic.Int32
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, sh, err := f.do(context.Background(), "alice", func() (lookupResult, error) {
				calls.Add(1)
				<-release
				return lookupResult{providers: []int{7}}, nil
			})
			if err != nil || len(res.providers) != 1 {
				t.Errorf("do = %+v, %v", res, err)
			}
			shared[i] = sh
		}(i)
	}
	// Let the followers pile up behind the leader, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	leaders := 0
	for _, sh := range shared {
		if !sh {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
}

func TestFlightFollowerHonorsContext(t *testing.T) {
	f := newFlight()
	release := make(chan struct{})
	defer close(release)
	go f.do(context.Background(), "alice", func() (lookupResult, error) {
		<-release
		return lookupResult{}, nil
	})
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := f.do(ctx, "alice", func() (lookupResult, error) {
		t.Error("follower ran the function")
		return lookupResult{}, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want deadline", err)
	}
}

func TestGateShedsWhenFull(t *testing.T) {
	g := newGate(1, 10*time.Millisecond)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := g.acquire(context.Background())
	if !errors.Is(err, errShed) {
		t.Fatalf("err = %v, want errShed", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("shed verdict was not fast")
	}
	g.release()
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
}

func TestLatencyWindowPercentile(t *testing.T) {
	l := &latencyWindow{}
	def := 123 * time.Millisecond
	if got := l.percentile(0.95, def); got != def {
		t.Fatalf("empty window percentile = %v, want default", got)
	}
	for i := 1; i <= 100; i++ {
		l.observe(time.Duration(i) * time.Millisecond)
	}
	p95 := l.percentile(0.95, def)
	if p95 < 90*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v", p95)
	}
}

// buildShardedFixture constructs a real index, partitions it, and serves
// each shard over httptest; returns the full index (for ground truth),
// the owner names, and per-shard replica URL lists.
func buildShardedFixture(t testing.TB, providers, owners, shards, replicasPer int) (*index.Server, []string, [][]string, [][]*httptest.Server) {
	t.Helper()
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: providers, Owners: owners, Exponent: 1.1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Construct(d.Matrix, d.Eps, core.Config{
		Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := index.NewServer(res.Published, d.Names)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.Partition(res.Published, d.Names, shards)
	if err != nil {
		t.Fatal(err)
	}
	bases := make([][]string, shards)
	servers := make([][]*httptest.Server, shards)
	for k, srv := range parts {
		for i := 0; i < replicasPer; i++ {
			// Each replica gets its own index server so per-replica query
			// counters stay independent, like distinct processes would.
			mat := srv.PublishedMatrix()
			rep, err := index.NewServer(mat, srv.Names())
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.SetShard(k, shards); err != nil {
				t.Fatal(err)
			}
			h, err := httpapi.NewHandler(rep)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			bases[k] = append(bases[k], ts.URL)
			servers[k] = append(servers[k], ts)
		}
	}
	return full, d.Names, bases, servers
}

// fastClient returns an upstream client with short timeouts and minimal
// backoff so failover tests stay fast.
func fastClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Second}
}

func TestGatewayLookupMatchesFullIndex(t *testing.T) {
	full, names, bases, _ := buildShardedFixture(t, 20, 30, 3, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, name := range names {
		want, err := full.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Lookup(context.Background(), name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Lookup(%q) = %v, full index says %v", name, got, want)
		}
	}
}

func TestGatewayLookupUnknownOwner(t *testing.T) {
	_, _, bases, _ := buildShardedFixture(t, 10, 12, 2, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	_, err = g.Lookup(context.Background(), "owner://no-such-identity")
	if !errors.Is(err, httpapi.ErrOwnerNotFound) {
		t.Fatalf("err = %v, want ErrOwnerNotFound", err)
	}
	// Negative results are cached: the second miss must be a cache hit.
	reg := metrics.NewRegistry()
	g2, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	for i := 0; i < 2; i++ {
		if _, err := g2.Lookup(context.Background(), "owner://no-such-identity"); !errors.Is(err, httpapi.ErrOwnerNotFound) {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if hits := reg.Counter("eppi_gateway_cache_hits_total", "").Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1 (negative result cached)", hits)
	}
}

func TestGatewayCacheServesRepeats(t *testing.T) {
	_, names, bases, servers := buildShardedFixture(t, 15, 20, 2, 1)
	reg := metrics.NewRegistry()
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	owner := names[0]
	first, err := g.Lookup(context.Background(), owner)
	if err != nil {
		t.Fatal(err)
	}
	// Kill every upstream: a warm cache must still answer.
	for _, reps := range servers {
		for _, ts := range reps {
			ts.Close()
		}
	}
	second, err := g.Lookup(context.Background(), owner)
	if err != nil {
		t.Fatalf("warm-cache lookup after upstream death: %v", err)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached answer changed: %v vs %v", first, second)
	}
	if hits := reg.Counter("eppi_gateway_cache_hits_total", "").Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

func TestGatewayFailoverToReplica(t *testing.T) {
	full, names, bases, servers := buildShardedFixture(t, 15, 20, 2, 2)
	reg := metrics.NewRegistry()
	g, err := New(Config{
		Shards: bases, Client: fastClient(), ProbePeriod: -1,
		CacheSize: -1, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Kill replica 0 of every shard; lookups must fail over to replica 1.
	for _, reps := range servers {
		reps[0].Close()
	}
	for _, name := range names {
		want, err := full.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Lookup(context.Background(), name)
		if err != nil {
			t.Fatalf("Lookup(%q) with primary dead: %v", name, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Lookup(%q) = %v, want %v", name, got, want)
		}
	}
	if fo := reg.Counter("eppi_gateway_failovers_total", "").Value(); fo == 0 {
		t.Fatal("no failovers counted despite dead primaries")
	}
}

func TestGatewayAllReplicasDead(t *testing.T) {
	_, names, bases, servers := buildShardedFixture(t, 10, 12, 2, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, reps := range servers {
		for _, ts := range reps {
			ts.Close()
		}
	}
	if _, err := g.Lookup(context.Background(), names[0]); err == nil {
		t.Fatal("lookup with every replica dead succeeded")
	}
}

func TestGatewayHedgeFiresOnSlowPrimary(t *testing.T) {
	// One replica is a slow stub (answers 503 after 300ms); the other is
	// the real shard server. Replica rotation alternates which one a
	// lookup tries first, so across a handful of lookups with a 10ms
	// fixed hedge trigger, the slow-first ones must hedge to the fast
	// replica and come back quickly, counting a hedge and a hedge win.
	_, names, bases, _ := buildShardedFixture(t, 10, 12, 1, 2)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(300 * time.Millisecond):
		case <-r.Context().Done():
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer slow.Close()
	cfg := [][]string{{slow.URL, bases[0][1]}}
	reg := metrics.NewRegistry()
	g, err := New(Config{
		Shards: cfg, Client: fastClient(), ProbePeriod: -1, CacheSize: -1,
		HedgeAfter: 10 * time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 4; i++ {
		start := time.Now()
		if _, err := g.Lookup(context.Background(), names[i]); err != nil {
			t.Fatalf("hedged lookup %d: %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
			t.Fatalf("lookup %d took %v; hedge did not rescue the tail", i, elapsed)
		}
	}
	if reg.Counter("eppi_gateway_hedges_total", "").Value() == 0 {
		t.Fatal("no hedge fired across slow-first lookups")
	}
	if reg.Counter("eppi_gateway_hedge_wins_total", "").Value() == 0 {
		t.Fatal("hedge answered first but no win was counted")
	}
}

func TestGatewaySearchMergesAllShards(t *testing.T) {
	full, _, bases, _ := buildShardedFixture(t, 15, 20, 3, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got, err := g.SearchAll(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Search(context.Background(), "", 0)
	if len(got) != len(want) {
		t.Fatalf("search returned %d owners, full index has %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for _, m := range got {
		seen[m.Owner] = true
	}
	for _, m := range want {
		if !seen[m.Owner] {
			t.Fatalf("owner %q missing from fan-out search", m.Owner)
		}
	}
	// Merged results are owner-sorted.
	for i := 1; i < len(got); i++ {
		if got[i-1].Owner > got[i].Owner {
			t.Fatal("merged search results not sorted")
		}
	}
}

func TestGatewayShedsUnderOverload(t *testing.T) {
	// One admitted slot and a slow upstream: the second concurrent query
	// must be shed with 503 + Retry-After while the first is in flight.
	block := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
		json.NewEncoder(w).Encode(httpapi.QueryResponse{Owner: "x", Providers: []int{0}})
	}))
	defer slow.Close()
	reg := metrics.NewRegistry()
	g, err := New(Config{
		Shards: [][]string{{slow.URL}}, Client: fastClient(), ProbePeriod: -1,
		CacheSize: -1, MaxInFlight: 1, QueueWait: 20 * time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()
	// Unblock the slow upstream before gw.Close drains connections.
	defer close(block)

	started := make(chan struct{})
	go func() {
		close(started)
		http.Get(gw.URL + "/v1/query?owner=a")
	}()
	<-started
	time.Sleep(30 * time.Millisecond) // let the first request occupy the slot
	resp, err := http.Get(gw.URL + "/v1/query?owner=b")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if reg.Counter("eppi_gateway_shed_total", "").Value() == 0 {
		t.Fatal("shed not counted")
	}
	// Observability stays reachable under overload.
	mresp, err := http.Get(gw.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics under overload = %d", mresp.StatusCode)
	}
}

func TestGatewayHealthProbeMarksDownReplica(t *testing.T) {
	_, _, bases, servers := buildShardedFixture(t, 10, 12, 1, 2)
	g, err := New(Config{
		Shards: bases, Client: fastClient(),
		ProbePeriod: 20 * time.Millisecond, CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	servers[0][0].Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if !g.shards[0].replicas[0].up.Load() && g.shards[0].replicas[1].up.Load() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g.shards[0].replicas[0].up.Load() {
		t.Fatal("probe never marked the dead replica down")
	}
	if !g.shards[0].replicas[1].up.Load() {
		t.Fatal("probe marked the live replica down")
	}
	// Healthz reflects the probe verdicts.
	gw := httptest.NewServer(g)
	defer gw.Close()
	resp, err := http.Get(gw.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz GatewayHealthz
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Replicas[0][0] != "down" || hz.Replicas[0][1] != "up" {
		t.Fatalf("healthz = %+v", hz)
	}
}

func TestGatewayProbeRejectsWrongShard(t *testing.T) {
	// A node serving shard 1/2 configured into shard 0's replica list must
	// be marked down by the probe: wrong answers are worse than none.
	_, _, bases, _ := buildShardedFixture(t, 10, 12, 2, 1)
	misconfigured := [][]string{{bases[1][0]}, {bases[1][0]}}
	g, err := New(Config{
		Shards: misconfigured, Client: fastClient(),
		ProbePeriod: 20 * time.Millisecond, CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if !g.shards[0].replicas[0].up.Load() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g.shards[0].replicas[0].up.Load() {
		t.Fatal("probe accepted a replica serving the wrong shard")
	}
	if !g.shards[1].replicas[0].up.Load() {
		t.Fatal("probe rejected the correctly-configured replica")
	}
}

func TestGatewayTraceRecordsFetchAndUpstreamSpans(t *testing.T) {
	_, names, bases, _ := buildShardedFixture(t, 10, 12, 1, 1)
	gwTracer := trace.New(8)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, Tracer: gwTracer, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()
	resp, err := http.Get(gw.URL + "/v1/query?owner=" + url.QueryEscape(names[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if gwTracer.Len() == 0 {
		t.Fatal("gateway recorded no trace")
	}
	tr := gwTracer.Recent()[0]
	var sawFetch, sawUpstream bool
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "gateway.fetch":
			sawFetch = true
		case "gateway.upstream":
			sawUpstream = true
		}
	}
	if !sawFetch || !sawUpstream {
		t.Fatalf("gateway trace missing fetch/upstream spans: %+v", tr.Spans)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no shards accepted")
	}
	if _, err := New(Config{Shards: [][]string{{}}}); err == nil {
		t.Error("empty replica list accepted")
	}
}

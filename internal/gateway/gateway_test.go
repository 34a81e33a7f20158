package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
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
	c := newCache(2)
	c.put("a", lookupResult{providers: []byte("[1]")})
	c.put("b", lookupResult{providers: []byte("[2]")})
	if _, ok := c.get(0, "a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", lookupResult{providers: []byte("[3]")}) // evicts b (a was touched)
	if _, ok := c.get(0, "b"); ok {
		t.Fatal("b survived past capacity")
	}
	if _, ok := c.get(0, "a"); !ok {
		t.Fatal("a evicted despite being most recently used")
	}
	if got, ok := c.get(0, "c"); !ok || string(got.providers) != "[3]" {
		t.Fatalf("c = %+v, %v", got, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestCacheDisabled(t *testing.T) {
	var c *cache = newCache(0)
	c.put("a", lookupResult{})
	if _, ok := c.get(0, "a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.len() != 0 {
		t.Fatal("disabled cache has length")
	}
}

func TestCachePurgeOtherEpochs(t *testing.T) {
	c := newCache(8)
	c.put("alice", lookupResult{epoch: 1})
	c.put("bob", lookupResult{epoch: 1, notFound: true})
	c.put("alice", lookupResult{epoch: 2})
	c.purgeOtherEpochs(2)
	if c.len() != 1 {
		t.Fatalf("len after purge = %d, want 1", c.len())
	}
	if _, ok := c.get(1, "alice"); ok {
		t.Fatal("epoch-1 entry survived the purge")
	}
	if _, ok := c.get(1, "bob"); ok {
		t.Fatal("epoch-1 negative entry survived the purge")
	}
	if _, ok := c.get(2, "alice"); !ok {
		t.Fatal("current-epoch entry purged")
	}
}

// An upstream answer of an older epoch that lands after the purge — the
// lookup left before the swap and returned after it — stays out of the
// cache, through both put paths.
func TestCachePutAfterPurgeRefusesOlderEpoch(t *testing.T) {
	c := newCache(8)
	c.purgeOtherEpochs(2)
	c.put("alice", lookupResult{epoch: 1})
	c.putBatch([]cachePut{
		{owner: "bob", hash: ownerHash("bob"), val: lookupResult{epoch: 1, notFound: true}},
		{owner: "bob", hash: ownerHash("bob"), val: lookupResult{epoch: 2}},
	})
	c.put("carol", lookupResult{epoch: 3})
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2 (epoch-1 puts refused)", c.len())
	}
	if _, ok := c.get(1, "alice"); ok {
		t.Fatal("epoch-1 put landed after the epoch-2 purge")
	}
	if _, ok := c.get(1, "bob"); ok {
		t.Fatal("epoch-1 batch put landed after the epoch-2 purge")
	}
	if _, ok := c.get(2, "bob"); !ok {
		t.Fatal("current-epoch batch put refused")
	}
	if _, ok := c.get(3, "carol"); !ok {
		t.Fatal("newer-epoch put refused")
	}
}

func TestCacheKeyScopesByEpoch(t *testing.T) {
	// Same owner, different epochs: distinct entries. An owner name that
	// starts with digits must not collide with another epoch's key space.
	c := newCache(8)
	c.put("alice", lookupResult{epoch: 1, providers: []byte("[1]")})
	c.put("alice", lookupResult{epoch: 2, providers: []byte("[2]")})
	if got, _ := c.get(1, "alice"); string(got.providers) != "[1]" {
		t.Fatalf("epoch-1 entry = %+v", got)
	}
	if got, _ := c.get(2, "alice"); string(got.providers) != "[2]" {
		t.Fatalf("epoch-2 entry = %+v", got)
	}
	c.put("2alice", lookupResult{epoch: 1, providers: []byte("[3]")})
	c.put("alice", lookupResult{epoch: 12, providers: []byte("[4]")})
	if got, _ := c.get(1, "2alice"); string(got.providers) != "[3]" {
		t.Fatalf("(1, 2alice) = %+v", got)
	}
	if got, _ := c.get(12, "alice"); string(got.providers) != "[4]" {
		t.Fatalf("(12, alice) = %+v: epoch/owner boundary ambiguous", got)
	}
}

// TestCacheHashCollision: keys sharing one hash are separate entries —
// a probe checks the slot's owner and epoch, so a collision never
// answers for the wrong key — and evicting one leaves the other findable.
func TestCacheHashCollision(t *testing.T) {
	c := newCache(2)
	const h = 12345
	c.mu.Lock()
	c.insert(h, "x", lookupResult{epoch: 1, providers: []byte("[1]")})
	c.insert(h, "y", lookupResult{epoch: 1, providers: []byte("[2]")})
	c.insert(h, "x", lookupResult{epoch: 2, providers: []byte("[3]")}) // evicts (1, x)
	for _, tc := range []struct {
		epoch uint64
		owner string
		want  string
	}{{1, "x", ""}, {1, "y", "[2]"}, {2, "x", "[3]"}, {2, "y", ""}} {
		got := ""
		if s := c.find(h, tc.epoch, tc.owner); s >= 0 {
			got = string(c.slots[s].val.providers)
		}
		if got != tc.want {
			t.Errorf("(%d, %s) = %q, want %q", tc.epoch, tc.owner, got, tc.want)
		}
	}
	c.mu.Unlock()
}

// TestCacheMatchesReference drives the slab cache and a map + list
// reference LRU with the same random operations over few keys (so
// probes chain, evict and shift) and requires equal answers throughout.
func TestCacheMatchesReference(t *testing.T) {
	type key struct {
		epoch uint64
		owner string
	}
	const capacity = 5
	c := newCache(capacity)
	var order []key // reference LRU, most recent first
	vals := map[key]string{}
	var floor uint64
	touch := func(k key) {
		for i, o := range order {
			if o == k {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append([]key{k}, order...)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for step := 0; step < 20000; step++ {
		k := key{uint64(1 + rng.IntN(3)), fmt.Sprint("o", rng.IntN(9))}
		switch op := rng.IntN(10); {
		case op < 4:
			got, ok := c.get(k.epoch, k.owner)
			want, wantOK := vals[k]
			if ok != wantOK || ok && string(got.providers) != want {
				t.Fatalf("step %d: get %v = %q %v, want %q %v", step, k, got.providers, ok, want, wantOK)
			}
			if ok {
				touch(k)
			}
		case op < 9:
			v := fmt.Sprint("[", step, "]")
			c.put(k.owner, lookupResult{epoch: k.epoch, providers: []byte(v)})
			if k.epoch < floor {
				continue
			}
			vals[k] = v
			touch(k)
			if len(order) > capacity {
				delete(vals, order[capacity])
				order = order[:capacity]
			}
		default:
			c.purgeOtherEpochs(k.epoch)
			floor = max(floor, k.epoch)
			kept := order[:0]
			for _, o := range order {
				if o.epoch == k.epoch {
					kept = append(kept, o)
				} else {
					delete(vals, o)
				}
			}
			order = kept
		}
		if c.len() != len(order) {
			t.Fatalf("step %d: len %d, reference %d", step, c.len(), len(order))
		}
	}
}

// TestCacheAllocFree: at capacity, every cache operation — a promoting
// get, a put that evicts, a batch probe and a batch put — allocates
// nothing.
func TestCacheAllocFree(t *testing.T) {
	const capacity = 64
	c := newCache(capacity)
	owners := make([]string, 4*capacity)
	hashes := make([]uint64, len(owners))
	for i := range owners {
		owners[i] = fmt.Sprint("owner://site-", i, ".example.org")
		hashes[i] = ownerHash(owners[i])
	}
	list := []byte("[1,2,3]")
	for _, o := range owners {
		c.put(o, lookupResult{epoch: 1, providers: list})
	}
	answers := make([]BatchAnswer, capacity)
	puts := make([]cachePut, capacity)
	next := 0
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"get", func() { c.get(1, owners[next%len(owners)]); next++ }},
		{"put", func() { c.put(owners[next%len(owners)], lookupResult{epoch: 1, providers: list}); next++ }},
		{"getBatch", func() {
			lo := next % (len(owners) - capacity)
			c.getBatch(1, owners[lo:lo+capacity], hashes[lo:lo+capacity], answers)
			next += 7
		}},
		{"putBatch", func() {
			lo := next % (len(owners) - capacity)
			for i := range puts {
				puts[i] = cachePut{owner: owners[lo+i], hash: hashes[lo+i], val: lookupResult{epoch: 1, providers: list}}
			}
			c.putBatch(puts)
			next += 7
		}},
	} {
		if n := testing.AllocsPerRun(500, tc.op); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", tc.name, n)
		}
	}
	if c.len() != capacity {
		t.Fatalf("len = %d, want %d", c.len(), capacity)
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
			res, sh, err := f.do(context.Background(), flightKey{owner: "alice"}, func() (lookupResult, error) {
				calls.Add(1)
				<-release
				return lookupResult{providers: []byte("[7]")}, nil
			})
			if err != nil || string(res.providers) != "[7]" {
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
	go f.do(context.Background(), flightKey{owner: "alice"}, func() (lookupResult, error) {
		<-release
		return lookupResult{}, nil
	})
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := f.do(ctx, flightKey{owner: "alice"}, func() (lookupResult, error) {
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

// TestGatewayReusesUpstreamConnections: with no Config.Client the
// gateway's own transport keeps enough idle connections that 16
// concurrent lookups, round after round, reuse their connections to a
// replica. http.DefaultTransport keeps two idle per host, so each round
// closed fourteen and dialed fourteen anew (about 72 dials and 69 closes
// over five rounds). net/http hands a connection back to the idle pool a
// moment after its body is read, so a round can still dial one or two
// extra connections; none may be closed.
func TestGatewayReusesUpstreamConnections(t *testing.T) {
	const concurrent, rounds = 16, 5
	full, names, _, _ := buildShardedFixture(t, 20, concurrent*rounds, 1, 1)
	h, err := httpapi.NewHandler(full)
	if err != nil {
		t.Fatal(err)
	}
	var dials, closes atomic.Int32
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			dials.Add(1)
		case http.StateClosed:
			closes.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	g, err := New(Config{Shards: [][]string{{ts.URL}}, ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for _, owner := range names[r*concurrent : (r+1)*concurrent] {
			wg.Add(1)
			go func(owner string) {
				defer wg.Done()
				if _, err := g.Lookup(context.Background(), owner); err != nil {
					t.Errorf("lookup %q: %v", owner, err)
				}
			}(owner)
		}
		wg.Wait()
	}
	if n, c := dials.Load(), closes.Load(); c > 0 || n > 2*concurrent {
		t.Fatalf("%d connections dialed and %d closed for %d rounds of %d concurrent lookups, want none closed and <= %d dialed",
			n, c, rounds, concurrent, 2*concurrent)
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

// TestGatewaySearchRouteGone pins that the gateway, like the nodes
// behind it, answers only QueryPPI: there is no substring fan-out, and no
// /v1/stats aggregation over the shards.
func TestGatewaySearchRouteGone(t *testing.T) {
	_, _, bases, _ := buildShardedFixture(t, 15, 20, 2, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, target := range []string{"/v1/search?q=", "/v1/stats"} {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", target, rec.Code)
		}
	}
}

// TestGatewayRouteMetrics pins the gateway's per-route families: one
// latency sample per request under eppi_gateway_request_seconds{route},
// and each response counted once under its status class.
func TestGatewayRouteMetrics(t *testing.T) {
	_, names, bases, _ := buildShardedFixture(t, 10, 12, 2, 1)
	reg := metrics.NewRegistry()
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	serve := func(method, target, body string) {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	}
	serve(http.MethodGet, "/v1/query?owner="+url.QueryEscape(names[0]), "")
	serve(http.MethodGet, "/v1/query?owner="+url.QueryEscape(names[1]), "")
	serve(http.MethodGet, "/v1/query", "")
	serve(http.MethodPost, "/v1/query/batch", `{"owners":["`+names[0]+`"]}`)
	serve(http.MethodGet, "/v1/healthz", "")
	for _, tc := range []struct {
		route   string
		samples uint64
		classes map[string]uint64
	}{
		{"query", 3, map[string]uint64{"2xx": 2, "4xx": 1}},
		{"batch", 1, map[string]uint64{"2xx": 1}},
		{"healthz", 1, map[string]uint64{"2xx": 1}},
	} {
		route := metrics.L("route", tc.route)
		if got := reg.Histogram("eppi_gateway_request_seconds", "", nil, route).Count(); got != tc.samples {
			t.Errorf("%s latency samples = %d, want %d", tc.route, got, tc.samples)
		}
		for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
			got := reg.Counter("eppi_gateway_requests_total", "", route, metrics.L("class", class)).Value()
			if got != tc.classes[class] {
				t.Errorf("%s %s = %d, want %d", tc.route, class, got, tc.classes[class])
			}
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
	tracer := trace.New(8)
	g, err := New(Config{
		Shards: [][]string{{slow.URL}}, Client: fastClient(), ProbePeriod: -1,
		CacheSize: -1, MaxInFlight: 1, QueueWait: 20 * time.Millisecond, Registry: reg,
		Tracer: tracer,
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
	// The shed sits inside the per-route accounting but outside the span:
	// it reads as a 5xx of its route and leaves no trace behind (the
	// admitted request is still blocked upstream, so the ring is empty).
	query := metrics.L("route", "query")
	if got := reg.Counter("eppi_gateway_requests_total", "", query, metrics.L("class", "5xx")).Value(); got != 1 {
		t.Fatalf("query 5xx = %d, want 1 (the shed request)", got)
	}
	if got := reg.Histogram("eppi_gateway_request_seconds", "", nil, query).Count(); got != 1 {
		t.Fatalf("query latency samples = %d, want 1 (the shed request)", got)
	}
	if n := tracer.Len(); n != 0 {
		t.Fatalf("%d traces recorded, want none: a shed request opens no span", n)
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

func TestGatewayProbeMarksUnhealthyReplicaDown(t *testing.T) {
	// A replica that answers healthz with 503 (draining, overloaded) is
	// down even though it answers.
	_, _, bases, _ := buildShardedFixture(t, 10, 12, 1, 2)
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"draining"}`))
	}))
	defer draining.Close()
	bases[0][0] = draining.URL
	g, err := New(Config{
		Shards: bases, Client: fastClient(),
		ProbePeriod: 20 * time.Millisecond, CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && g.shards[0].replicas[0].up.Load() {
		time.Sleep(10 * time.Millisecond)
	}
	if g.shards[0].replicas[0].up.Load() {
		t.Fatal("probe kept a replica answering 503 up")
	}
	if !g.shards[0].replicas[1].up.Load() {
		t.Fatal("probe marked the healthy replica down")
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

	// A caller carrying the propagation headers gets its trace joined:
	// the gateway.query root keeps the caller's trace id and hangs under
	// the caller's span.
	const callerTrace, callerSpan = trace.TraceID(0x1234abcd5678ef90), trace.SpanID(0x42)
	req, err := http.NewRequest(http.MethodGet, gw.URL+"/v1/query?owner="+url.QueryEscape(names[1]), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(httpapi.TraceIDHeader, callerTrace.String())
	req.Header.Set(httpapi.ParentSpanHeader, callerSpan.String())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("joined query status = %d", resp.StatusCode)
	}
	var joined *trace.Trace
	for _, tr := range gwTracer.Recent() {
		if tr.ID == callerTrace {
			joined = tr
		}
	}
	if joined == nil {
		t.Fatalf("no gateway trace carries the caller's id %s", callerTrace)
	}
	if root := joined.Root(); root.Name != "gateway.query" || root.Parent != callerSpan {
		t.Fatalf("joined root = %q under %s, want gateway.query under %s", root.Name, root.Parent, callerSpan)
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

package gateway

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"
	"time"
)

// lookupResult is one cacheable QueryPPI outcome. Caching responses at
// the gateway is safe because M' is public by construction: the Eq. 2
// false-positive noise is baked into the index at publication time, not
// sampled per query, so every lookup of an owner returns the same
// provider list until a new index version is published. "Owner unknown"
// is equally stable, so negative results are cached too. The epoch makes
// "until a new index version" operational: entries are keyed by it, so a
// re-publication orphans every older entry at once.
type lookupResult struct {
	providers []int
	notFound  bool
	// epoch is the publication epoch of the index that answered, as
	// reported by the upstream node.
	epoch uint64
}

// cacheKey scopes an owner's cache entry to one publication epoch. When
// the fleet swaps to epoch N+1 the gateway starts keying by N+1, so every
// epoch-N entry — negatives included — becomes unreachable in one step
// and ages out of the LRU; no scan, no flush.
func cacheKey(epoch uint64, owner string) string {
	return strconv.FormatUint(epoch, 10) + "\x00" + owner
}

// cache is a fixed-capacity LRU of lookupResults keyed by (epoch, owner).
// All methods are safe for concurrent use. A non-zero ttl additionally
// expires entries by age — the safety net for deployments that never
// publish a new epoch, where stale-by-LRU would otherwise be the only
// bound on entry lifetime.
type cache struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration // 0: entries never expire by age
	ll    *list.List    // front = most recent; values are *cacheEntry
	items map[string]*list.Element
	// floor is the epoch of the last purge. A put of an older epoch's
	// answer is dropped: a lookup that left for upstream before the swap
	// and returns after it must not re-plant an entry the purge removed.
	floor uint64
}

// cacheEntry is kept to exactly 64 bytes — key header 16 + val 40 +
// expiresNs 8 — so a probe touches one cache line. The expiry deadline
// is unix nanos rather than a time.Time (24 bytes) for that reason.
type cacheEntry struct {
	key       string
	val       lookupResult
	expiresNs int64 // 0: never
}

// newCache returns an LRU holding up to capacity entries; capacity <= 0
// returns nil, and a nil cache misses on every get and drops every put.
func newCache(capacity int, ttl time.Duration) *cache {
	if capacity <= 0 {
		return nil
	}
	return &cache{cap: capacity, ttl: ttl, ll: list.New(), items: make(map[string]*list.Element, capacity)}
}

func (c *cache) get(key string) (lookupResult, bool) {
	if c == nil {
		return lookupResult{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return lookupResult{}, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.expiresNs != 0 && time.Now().UnixNano() > ent.expiresNs {
		c.ll.Remove(el)
		delete(c.items, key)
		return lookupResult{}, false
	}
	c.ll.MoveToFront(el)
	return ent.val, true
}

func (c *cache) put(key string, val lookupResult) {
	if c == nil {
		return
	}
	var expires int64
	if c.ttl > 0 {
		expires = time.Now().Add(c.ttl).UnixNano()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if val.epoch < c.floor {
		return
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.val = val
		ent.expiresNs = expires
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, expiresNs: expires})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// getBatch probes the cache for every owner under one epoch, filling
// answers[i] for each present entry and returning the hit count. It
// takes the lock once for the whole batch and builds lookup keys in a
// reused buffer (a map probe via string([]byte) does not allocate), so
// the per-owner cost of a warm batch is one map lookup plus one row
// write — this is the fast path the batched lookup pipeline exists for,
// and why it writes BatchAnswer rows directly instead of handing values
// through a callback. Unlike get, a batch probe does not promote entries
// to the LRU front: splicing the list (and its GC write barriers) per
// row costs more than the whole probe, and a bulk scan refreshing 64
// entries at once would crowd out genuinely hot single lookups anyway.
// Expired entries are evicted and reported as misses, exactly like get.
func (c *cache) getBatch(epoch uint64, owners []string, answers []BatchAnswer) (hits int) {
	if c == nil {
		return 0
	}
	keyBuf := strconv.AppendUint(make([]byte, 0, 64), epoch, 10)
	keyBuf = append(keyBuf, 0)
	prefixLen := len(keyBuf)
	var nowNs int64
	if c.ttl > 0 {
		nowNs = time.Now().UnixNano()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, owner := range owners {
		keyBuf = append(keyBuf[:prefixLen], owner...)
		el, ok := c.items[string(keyBuf)]
		if !ok {
			continue
		}
		ent := el.Value.(*cacheEntry)
		if ent.expiresNs != 0 && nowNs > ent.expiresNs {
			c.ll.Remove(el)
			delete(c.items, ent.key)
			continue
		}
		hits++
		a := &answers[i]
		a.Owner = owner
		a.Found = !ent.val.notFound
		a.Providers = ent.val.providers
		a.Epoch = ent.val.epoch
		a.Cached = true
		a.Err = nil // answers may be a reused buffer
	}
	return hits
}

// cachePut is one pending putBatch insertion.
type cachePut struct {
	key string
	val lookupResult
}

// putBatch inserts every entry under one lock acquisition; semantics per
// entry match put, the epoch floor included.
func (c *cache) putBatch(puts []cachePut) {
	if c == nil || len(puts) == 0 {
		return
	}
	var expires int64
	if c.ttl > 0 {
		expires = time.Now().Add(c.ttl).UnixNano()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range puts {
		if p.val.epoch < c.floor {
			continue
		}
		if el, ok := c.items[p.key]; ok {
			ent := el.Value.(*cacheEntry)
			ent.val = p.val
			ent.expiresNs = expires
			c.ll.MoveToFront(el)
			continue
		}
		c.items[p.key] = c.ll.PushFront(&cacheEntry{key: p.key, val: p.val, expiresNs: expires})
		if c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheEntry).key)
		}
	}
}

// purgeOtherEpochs drops every entry not keyed by epoch e. Called when the
// gateway learns the fleet advanced: the orphaned entries would never be
// read again (the key prefix moved on), so evicting them immediately frees
// their LRU slots for current-epoch answers instead of letting stale
// ballast age out one eviction at a time. Answers of epochs before e that
// arrive later are refused by put and putBatch.
func (c *cache) purgeOtherEpochs(e uint64) {
	if c == nil {
		return
	}
	prefix := strconv.FormatUint(e, 10) + "\x00"
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor = max(c.floor, e)
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*cacheEntry)
		if !strings.HasPrefix(ent.key, prefix) {
			c.ll.Remove(el)
			delete(c.items, ent.key)
		}
	}
}

// len returns the live entry count.
func (c *cache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flight deduplicates concurrent lookups of the same key: one caller (the
// leader) does the upstream work, everyone else waits for its result. A
// thundering herd on a hot owner becomes one upstream request.
type flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  lookupResult
	err  error
}

func newFlight() *flight {
	return &flight{calls: make(map[string]*flightCall)}
}

// do runs fn for key, deduplicating concurrent callers. Followers honor
// their own context while waiting: a follower whose ctx dies stops
// waiting without affecting the leader. shared reports whether the
// result came from another caller's execution.
func (f *flight) do(ctx context.Context, key string, fn func() (lookupResult, error)) (val lookupResult, shared bool, err error) {
	f.mu.Lock()
	if call, ok := f.calls[key]; ok {
		f.mu.Unlock()
		select {
		case <-call.done:
			return call.val, true, call.err
		case <-ctx.Done():
			return lookupResult{}, true, ctx.Err()
		}
	}
	call := &flightCall{done: make(chan struct{})}
	f.calls[key] = call
	f.mu.Unlock()

	call.val, call.err = fn()
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(call.done)
	return call.val, false, call.err
}

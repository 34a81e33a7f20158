package gateway

import (
	"context"
	"hash/maphash"
	"sync"
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
	// providers is the node's provider list exactly as it sent it — a
	// JSON int array, checked by the client's decoder — so a hit is
	// written out without re-encoding. nil when notFound.
	providers []byte
	notFound  bool
	// epoch is the publication epoch of the index that answered, as
	// reported by the upstream node.
	epoch uint64
}

// ownerSeed seeds ownerHash; it is drawn once per process.
var ownerSeed = maphash.MakeSeed()

// ownerHash is the hash the cache and the batch merge key owners by. A
// batch computes it once per owner and reuses it for both.
func ownerHash(owner string) uint64 { return maphash.String(ownerSeed, owner) }

// keyHash scopes an owner's hash to one publication epoch: the cache
// key is (epoch, owner), so a swap to epoch N+1 makes every epoch-N
// entry — negatives included — unreachable in one step.
func keyHash(owner uint64, epoch uint64) uint64 {
	return owner ^ epoch*0x9e3779b97f4a7c15
}

// slot is one cache entry. Slots link into the LRU list (or the free
// list) by index.
type slot struct {
	owner      string
	hash       uint64 // keyHash(ownerHash(owner), val.epoch)
	val        lookupResult
	prev, next int32
}

// cache is a fixed-capacity LRU of lookupResults keyed by (epoch, owner),
// laid out flat: a slab of slots allocated once, linked into the LRU
// list by int32 indices, found through an open-addressed table of slot
// indices probed by keyHash. A probe compares the slot's owner and epoch,
// so two keys with one hash are two entries, never a wrong answer. Gets
// and puts allocate nothing: a put takes a free slot or the LRU tail's.
//
// All methods are safe for concurrent use. Entries have no age bound: an
// epoch's M′ never changes, nodes refuse a CURRENT pointer that
// regresses, and the floor below drops answers from older epochs, so
// every entry is correct for as long as its key can be read.
type cache struct {
	mu    sync.Mutex
	slots []slot
	// table holds slot index + 1 (0 = empty) under linear probing; its
	// length is a power of two at least twice the capacity.
	table      []int32
	head, tail int32 // most and least recently used; -1 when empty
	free       int32 // first unused slot, chained through next; -1 when full
	n          int
	// floor is the epoch of the last purge. A put of an older epoch's
	// answer is dropped: a lookup that left for upstream before the swap
	// and returns after it must not re-plant an entry the purge removed.
	floor uint64
}

// newCache returns an LRU holding up to capacity entries; capacity <= 0
// returns nil, and a nil cache misses on every get and drops every put.
func newCache(capacity int) *cache {
	if capacity <= 0 {
		return nil
	}
	size := 2
	for size < 2*capacity {
		size *= 2
	}
	c := &cache{slots: make([]slot, capacity), table: make([]int32, size), head: -1, tail: -1}
	for i := range c.slots {
		c.slots[i].next = int32(i + 1)
	}
	c.slots[capacity-1].next = -1
	return c
}

// find returns the slot holding (epoch, owner) under hash h, or -1.
func (c *cache) find(h, epoch uint64, owner string) int32 {
	mask := uint64(len(c.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := c.table[i] - 1
		if s < 0 {
			return -1
		}
		if sl := &c.slots[s]; sl.hash == h && sl.val.epoch == epoch && sl.owner == owner {
			return s
		}
	}
}

// unlink removes slot s from the table and the LRU list and frees it.
// Table removal is by backward shift, so no tombstones build up.
func (c *cache) unlink(s int32) {
	mask := uint64(len(c.table) - 1)
	i := c.slots[s].hash & mask
	for c.table[i] != s+1 {
		i = (i + 1) & mask
	}
	c.table[i] = 0
	for j := (i + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		t := c.table[j]
		if home := c.slots[t-1].hash & mask; (j-home)&mask >= (j-i)&mask {
			c.table[i], c.table[j] = t, 0
			i = j
		}
	}
	c.detach(s)
	c.slots[s] = slot{next: c.free}
	c.free = s
	c.n--
}

// detach takes slot s out of the LRU list.
func (c *cache) detach(s int32) {
	sl := &c.slots[s]
	if sl.prev >= 0 {
		c.slots[sl.prev].next = sl.next
	} else {
		c.head = sl.next
	}
	if sl.next >= 0 {
		c.slots[sl.next].prev = sl.prev
	} else {
		c.tail = sl.prev
	}
}

// pushFront makes slot s the most recently used.
func (c *cache) pushFront(s int32) {
	sl := &c.slots[s]
	sl.prev, sl.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = s
	} else {
		c.tail = s
	}
	c.head = s
}

func (c *cache) get(epoch uint64, owner string) (lookupResult, bool) {
	if c == nil {
		return lookupResult{}, false
	}
	h := keyHash(ownerHash(owner), epoch)
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.find(h, epoch, owner)
	if s < 0 {
		return lookupResult{}, false
	}
	if s != c.head {
		c.detach(s)
		c.pushFront(s)
	}
	return c.slots[s].val, true
}

// put stores val for owner under val.epoch.
func (c *cache) put(owner string, val lookupResult) {
	if c == nil {
		return
	}
	h := keyHash(ownerHash(owner), val.epoch)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(h, owner, val)
}

// insert is put under the lock, with the key hash already taken.
func (c *cache) insert(h uint64, owner string, val lookupResult) {
	if val.epoch < c.floor {
		return
	}
	if s := c.find(h, val.epoch, owner); s >= 0 {
		c.slots[s].val = val
		if s != c.head {
			c.detach(s)
			c.pushFront(s)
		}
		return
	}
	if c.free < 0 {
		c.unlink(c.tail)
	}
	s := c.free
	c.free = c.slots[s].next
	c.slots[s] = slot{owner: owner, hash: h, val: val}
	c.pushFront(s)
	c.n++
	mask := uint64(len(c.table) - 1)
	i := h & mask
	for c.table[i] != 0 {
		i = (i + 1) & mask
	}
	c.table[i] = s + 1
}

// getBatch probes the cache for every owner under one epoch, filling
// answers[i] for each present entry and returning the hit count; hashes[i]
// is ownerHash(owners[i]). It takes the lock once for the whole batch, so
// the per-owner cost of a warm batch is one table probe plus one row
// write — this is the fast path the batched lookup pipeline exists for,
// and why it writes BatchAnswer rows directly instead of handing values
// through a callback. Unlike get, a batch probe does not promote entries
// to the LRU front: a bulk scan refreshing 64 entries at once would crowd
// out genuinely hot single lookups.
func (c *cache) getBatch(epoch uint64, owners []string, hashes []uint64, answers []BatchAnswer) (hits int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, owner := range owners {
		s := c.find(keyHash(hashes[i], epoch), epoch, owner)
		if s < 0 {
			continue
		}
		val := &c.slots[s].val
		hits++
		answers[i] = BatchAnswer{Owner: owner, Found: !val.notFound, Epoch: val.epoch,
			Cached: true, raw: val.providers}
	}
	return hits
}

// cachePut is one pending putBatch insertion; hash is ownerHash(owner).
type cachePut struct {
	owner string
	hash  uint64
	val   lookupResult
}

// putBatch inserts every entry under one lock acquisition; semantics per
// entry match put, the epoch floor included.
func (c *cache) putBatch(puts []cachePut) {
	if c == nil || len(puts) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range puts {
		p := &puts[i]
		c.insert(keyHash(p.hash, p.val.epoch), p.owner, p.val)
	}
}

// purgeOtherEpochs drops every entry not keyed by epoch e. Called when the
// gateway learns the fleet advanced: the orphaned entries would never be
// read again (the key's epoch moved on), so evicting them immediately frees
// their slots for current-epoch answers instead of letting stale ballast
// age out one eviction at a time. Answers of epochs before e that arrive
// later are refused by put and putBatch.
func (c *cache) purgeOtherEpochs(e uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor = max(c.floor, e)
	for s := c.head; s >= 0; {
		next := c.slots[s].next
		if c.slots[s].val.epoch != e {
			c.unlink(s)
		}
		s = next
	}
}

// len returns the live entry count.
func (c *cache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// flightKey names one deduplicated upstream lookup: an owner under the
// epoch the gateway was keying by when it missed.
type flightKey struct {
	epoch uint64
	owner string
}

// flight deduplicates concurrent lookups of the same key: one caller (the
// leader) does the upstream work, everyone else waits for its result. A
// thundering herd on a hot owner becomes one upstream request.
type flight struct {
	mu    sync.Mutex
	calls map[flightKey]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  lookupResult
	err  error
}

func newFlight() *flight {
	return &flight{calls: make(map[flightKey]*flightCall)}
}

// do runs fn for key, deduplicating concurrent callers. Followers honor
// their own context while waiting: a follower whose ctx dies stops
// waiting without affecting the leader. shared reports whether the
// result came from another caller's execution.
func (f *flight) do(ctx context.Context, key flightKey, fn func() (lookupResult, error)) (val lookupResult, shared bool, err error) {
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

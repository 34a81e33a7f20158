package circuit

import (
	"fmt"
	"sync"
)

// Compilation cache. The secure construction pipeline used to recompile an
// identical CountBelow circuit for every identity batch — compilation (gate
// emission, constant folding, round scheduling) is pure CPU waste when the
// parameters repeat, and the wide path leans on exactly that reuse: its
// CountBelowSlice/RevealSlice compiles are shared by every construction
// with the same parameters. Compiled *Circuit values are immutable after Build (the
// GMW evaluator already shares one circuit across all party goroutines),
// so handing the same pointer to every caller is safe.
//
// The cache is a bounded FIFO keyed by the full parameter set. Thresholds
// participate in the key, so per-batch threshold vectors only hit when the
// batch genuinely repeats (same policy, same batch bounds) — which is the
// common case across construction reruns, worker counts, and experiment
// sweeps within one process.

const cacheLimit = 128

var compileCache = struct {
	sync.Mutex
	circuits map[string]*Circuit
	order    []string // insertion order for FIFO eviction
}{circuits: make(map[string]*Circuit)}

// cachedCompile returns the memoized circuit for key, compiling and
// inserting on miss. Errors are not cached: invalid parameters are a
// caller bug and the recompile cost of reporting them twice is irrelevant.
func cachedCompile(key string, compile func() (*Circuit, error)) (*Circuit, error) {
	compileCache.Lock()
	if c, ok := compileCache.circuits[key]; ok {
		compileCache.Unlock()
		return c, nil
	}
	compileCache.Unlock()

	// Compile outside the lock: slab circuits are cheap but per-batch
	// scalar circuits are not, and a miss must not serialize every other
	// caller behind it. A racing duplicate compile is harmless — last
	// writer wins and both results are equivalent.
	c, err := compile()
	if err != nil {
		return nil, err
	}

	compileCache.Lock()
	defer compileCache.Unlock()
	if prev, ok := compileCache.circuits[key]; ok {
		return prev, nil // racer got there first; keep one canonical copy
	}
	if len(compileCache.order) >= cacheLimit {
		oldest := compileCache.order[0]
		compileCache.order = compileCache.order[1:]
		delete(compileCache.circuits, oldest)
	}
	compileCache.circuits[key] = c
	compileCache.order = append(compileCache.order, key)
	return c, nil
}

// cacheSize reports the number of cached circuits (tests only).
func cacheSize() int {
	compileCache.Lock()
	defer compileCache.Unlock()
	return len(compileCache.circuits)
}

// CountBelowCached is CountBelow memoized by its full parameter set.
func CountBelowCached(p CountBelowParams) (*Circuit, error) {
	key := fmt.Sprintf("cb|%d|%d|%d|%d|%v", p.Parties, p.Identities, p.ShareBits, p.Arithmetic, p.Thresholds)
	return cachedCompile(key, func() (*Circuit, error) { return CountBelow(p) })
}

// RevealCached is Reveal memoized by its full parameter set.
func RevealCached(p RevealParams) (*Circuit, error) {
	key := fmt.Sprintf("rv|%d|%d|%d|%d|%d|%d|%v",
		p.Parties, p.Identities, p.ShareBits, p.CoinBits, p.MixThreshold, p.Arithmetic, p.Thresholds)
	return cachedCompile(key, func() (*Circuit, error) { return Reveal(p) })
}

// CountBelowSliceCached is CountBelowSlice memoized by its parameters.
func CountBelowSliceCached(p SliceParams) (*Circuit, error) {
	key := fmt.Sprintf("cbs|%d|%d|%d", p.Parties, p.ShareBits, p.Arithmetic)
	return cachedCompile(key, func() (*Circuit, error) { return CountBelowSlice(p) })
}

// RevealSliceCached is RevealSlice memoized by its parameters.
func RevealSliceCached(p SliceParams) (*Circuit, error) {
	key := fmt.Sprintf("rvs|%d|%d|%d|%d|%d", p.Parties, p.ShareBits, p.CoinBits, p.MixThreshold, p.Arithmetic)
	return cachedCompile(key, func() (*Circuit, error) { return RevealSlice(p) })
}

// SliceCountCached is SliceCount memoized by its parameters.
func SliceCountCached(p SliceCountParams) (*Circuit, error) {
	key := fmt.Sprintf("sc|%d|%d|%d", p.Parties, p.Slots, p.Arithmetic)
	return cachedCompile(key, func() (*Circuit, error) { return SliceCount(p) })
}

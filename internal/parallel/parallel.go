// Package parallel provides the small worker-pool primitives used to shard
// ε-PPI construction work (β thresholds, column aggregation, MPC identity
// batches, randomized publication) across goroutines.
//
// The contract that keeps parallel construction deterministic lives here:
// task bodies must derive every effect — including randomness, which comes
// keyed per purpose and slot from internal/prf — from the task index alone,
// never from which worker ran the task or in what order tasks completed. Under that contract For and
// Blocks produce byte-identical results at any worker count.
package parallel

import (
	"sync"
	"sync/atomic"
)

// For runs fn(task) for every task in [0, tasks), spread over at most
// workers goroutines. Tasks are claimed from a shared atomic counter, so
// assignment is load-balanced and intentionally unspecified.
//
// On error the pool stops claiming new tasks; tasks already running are
// allowed to finish. The returned error is the one from the
// lowest-numbered failing task, which is deterministic even when several
// tasks fail in the same run. workers <= 1 (or tasks <= 1) degrades to a
// plain sequential loop on the calling goroutine.
func For(workers, tasks int, fn func(task int) error) error {
	if tasks <= 0 {
		return nil
	}
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, tasks)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= tasks || failed.Load() {
					return
				}
				if err := fn(t); err != nil {
					errs[t] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Blocks shards the half-open range [0, n) into contiguous blocks of size
// at most block and runs fn(b, lo, hi) for each, where b is the block
// index and [lo, hi) the sub-range it covers. Error semantics match For.
func Blocks(workers, n, block int, fn func(b, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if block <= 0 {
		block = 1
	}
	tasks := (n + block - 1) / block
	return For(workers, tasks, func(b int) error {
		lo := b * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		return fn(b, lo, hi)
	})
}

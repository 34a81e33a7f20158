package gateway

import (
	"context"
	"log/slog"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/metrics"
)

// replica is one serving endpoint of a shard.
type replica struct {
	base   string
	client *httpapi.Client
	up     atomic.Bool
	upG    *metrics.Gauge // eppi_gateway_replica_up{shard,replica}
}

// shardState is the gateway's view of one column shard: its replicas plus
// a rotation counter spreading load across the healthy ones.
type shardState struct {
	id       int
	replicas []*replica
	next     atomic.Uint32
}

// candidates returns the shard's replicas in try-order: healthy replicas
// first (rotated round-robin so load spreads), then unhealthy ones as a
// last resort — a probe verdict may be stale, and a desperate attempt
// beats a guaranteed failure.
func (s *shardState) candidates() []*replica {
	healthy := make([]*replica, 0, len(s.replicas))
	var down []*replica
	for _, r := range s.replicas {
		if r.up.Load() {
			healthy = append(healthy, r)
		} else {
			down = append(down, r)
		}
	}
	if len(healthy) > 1 {
		rot := int(s.next.Add(1)) % len(healthy)
		healthy = append(healthy[rot:], healthy[:rot]...)
	}
	return append(healthy, down...)
}

// probeTimeout bounds one health probe round-trip.
const probeTimeout = time.Second

// probeLoop re-checks every replica of every shard each period until ctx
// is cancelled. Transitions are logged; the per-replica up gauge tracks
// the current verdict for /v1/metrics.
func (g *Gateway) probeLoop(ctx context.Context, period time.Duration) {
	defer g.probeWG.Done()
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.probeOnce(ctx)
		}
	}
}

// probeOnce probes every replica of every shard concurrently.
func (g *Gateway) probeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, st := range g.shards {
		for _, r := range st.replicas {
			wg.Add(1)
			go func(st *shardState, r *replica) {
				defer wg.Done()
				probeCtx, cancel := context.WithTimeout(ctx, probeTimeout)
				defer cancel()
				hz, err := r.client.Healthz(probeCtx)
				ok := err == nil
				if ok && hz.Shard != nil && (hz.Shard.ID != st.id || hz.Shard.Of != len(g.shards)) {
					// The node answers but serves the wrong slice of the
					// index — routing to it would return wrong results.
					ok = false
					g.logger.Warn("replica serves wrong shard",
						slog.String("replica", r.base),
						slog.Int("want_shard", st.id),
						slog.Int("have_shard", hz.Shard.ID))
				}
				if ok {
					// The probe doubles as the epoch signal: a gateway whose
					// cache covers every hot owner may serve hits for minutes
					// without an upstream call, and would otherwise never
					// learn the fleet swapped to a new publication.
					g.observeEpoch(hz.Epoch)
				}
				was := r.up.Swap(ok)
				if was != ok {
					if ok {
						g.logger.Info("replica up", slog.Int("shard", st.id), slog.String("replica", r.base))
					} else {
						g.logger.Warn("replica down", slog.Int("shard", st.id), slog.String("replica", r.base),
							slog.Any("error", err))
					}
				}
				if ok {
					r.upG.Set(1)
				} else {
					r.upG.Set(0)
				}
			}(st, r)
		}
	}
	wg.Wait()
}

// Latency window geometry: percentiles need minWindowSamples samples to
// be trusted, and observe refreshes the cached hedge trigger once every
// windowRefresh samples.
const (
	minWindowSamples = 16
	windowRefresh    = 16
)

// latencyWindow tracks recent upstream lookup latencies and serves their
// hedgePercentile — the adaptive hedge trigger. A fixed-size ring keeps
// observe O(1); every windowRefresh samples it re-sorts the window and
// publishes the trigger atomically, so reading it (once per upstream
// call with a second replica to hedge to) is one atomic load.
type latencyWindow struct {
	mu      sync.Mutex
	ring    [256]time.Duration
	sorted  [256]time.Duration // percentile's scratch, guarded by mu
	filled  int
	next    int
	pending int // samples since the last refresh

	// trigger is the hedgePercentile of the window at the last refresh,
	// 0 before the first.
	trigger atomic.Int64
}

func (l *latencyWindow) observe(d time.Duration) {
	l.mu.Lock()
	l.ring[l.next] = d
	l.next = (l.next + 1) % len(l.ring)
	if l.filled < len(l.ring) {
		l.filled++
	}
	l.pending++
	refresh := l.pending >= windowRefresh && l.filled >= minWindowSamples
	if refresh {
		l.pending = 0
	}
	l.mu.Unlock()
	if refresh {
		l.trigger.Store(int64(l.percentile(hedgePercentile, 0)))
	}
}

// hedgeTrigger returns the hedgePercentile as of the last refresh, or def
// before the window has enough samples.
func (l *latencyWindow) hedgeTrigger(def time.Duration) time.Duration {
	if d := time.Duration(l.trigger.Load()); d > 0 {
		return d
	}
	return def
}

// percentile returns the p-quantile (0 < p < 1) of the window now, or
// def when too few samples have been seen to trust it. It sorts the
// window into a scratch array, so it allocates nothing.
func (l *latencyWindow) percentile(p float64, def time.Duration) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.filled < minWindowSamples {
		return def
	}
	buf := l.sorted[:l.filled]
	copy(buf, l.ring[:l.filled])
	slices.Sort(buf)
	return buf[min(int(p*float64(len(buf))), len(buf)-1)]
}

// replicaLabel renders a replica index for metric labels.
func replicaLabel(i int) string { return strconv.Itoa(i) }

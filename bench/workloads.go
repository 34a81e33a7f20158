package main

import "fmt"

// spec is one workload: a set of inputs to the one pipeline every run
// executes (generate → construct → audit+publish → replicate → load → swap
// → serve through the gateway). Phases, repetitions and the split of the
// measured seconds are the same for both; nothing below the harness ever
// sees a workload name.
type spec struct {
	name string
	why  string

	// providers × owners is the generated network (m × n).
	providers, owners int
	// secure selects core.ModeSecure (c = 3, wide evaluator, prefix
	// arithmetic, 32 coin bits, batch 128, dealer triples, in-memory
	// transport); otherwise trusted aggregation.
	secure bool
	// hot draws lookups uniformly from hotOwners pre-warmed identities, so
	// the gateway cache answers; otherwise owners are walked along one
	// seeded permutation of all n, so the reuse distance is n and every
	// lookup misses, inserts and evicts.
	hot bool
	// otProbe lets the traced run generate one 64-lane triple word by
	// oblivious transfer (≈ 10 s): the cost that keeps OT-backed
	// construction out of the workloads. Only the toy-scale test turns it
	// off.
	otProbe bool
}

const (
	// The four generator parameters that keep the index from degenerating:
	// with MaxFrequency = m and ε up to 1 the most frequent owners are
	// common with ε ≈ 1, ξ → 1, λ → 1 and M' is all ones.
	zipfExponent = 1.0
	maxFreqDiv   = 5 // MaxFrequency = m / maxFreqDiv
	epsLow       = 0.1
	epsHigh      = 0.9

	gamma      = 0.9  // Chernoff success-ratio target γ
	shardCount = 2    // 2 shards × 1 replica
	hotOwners  = 1024 // secure-hot working set (gateway cache holds 4096)
	batchSize  = 64   // owners per POST /v1/query/batch
	verifyOps  = 2000 // closing verification pass, lookups
	setupReps  = 3    // full fleet boots per run; setup_s is their median

	// Half the measured seconds serve, half build.
	//
	// Serving runs in rounds of a 1-client pass, an nproc-client pass and
	// an nproc-client batch pass of equal length; the first warmRounds are
	// discarded. At the benchmark's 51 s that is 54 rounds of 3 × 0.157 s,
	// spread over the whole 25.5 s so that a slow spell of the machine costs
	// every metric a few rounds instead of one metric all of them: ≈ 55 000
	// cold or ≈ 200 000 hot latencies behind lookup_p10_us and 50 per-round
	// rates behind each of lookup_qps and batch_owners_per_s.
	//
	// Building runs cycles of one construct, one audit+publish and
	// rolloutsPerCycle rollouts — the operator's loop — until its seconds
	// are spent (≈ 14 cycles) and at least minCycles times; the first cycle
	// is discarded, so each build metric is the median of ≥ 7 repetitions.
	serveShare       = 0.5
	warmRounds       = 4
	serveRounds      = 50
	rolloutsPerCycle = 3
	minCycles        = 8

	// tracedPerPass is how many lookups of each 1-client pass a traced run
	// sends under a span of their own: 54 passes × 32 root traces stay far
	// below traceCapacity, so the ring never evicts the boots.
	tracedPerPass = 32
	traceCapacity = 1 << 12
)

// Two workloads, not four: the driver's contract has every workload report
// every end-to-end metric, so a workload is a point in (construction mode ×
// key pattern), and the two below cover both values of each with no
// (workload, metric) pair measuring what another pair already measures.
//
// The sizes are what the driver's budget affords (48 runs in 3 420 s, so
// ≈ 65 s of wall a run, of which three boots and ≥ 8 build cycles): one
// trusted pipeline pass costs ≈ 1.7 s at 4 000 × 14 336 and one secure pass
// ≈ 1.9 s at 512 × 32 768. m = 4 000 is ISSUE 12's scale-down; n is cut
// instead of m because a column read costs ≈ 4 ns a row whatever n is
// (15 µs of a 125 µs cold lookup, 15 µs of a 33 µs batch row), while every
// build stage costs m·n. n = 224 × 64 keeps n ≫ the 4 096-entry gateway
// cache and keeps one construction's spans (224 × 32 publish tiles + 3 × 224
// column shards ≈ 7 850) under the tracer's 8 192-per-trace cap. See
// README.md, "Scale".
var specs = []spec{
	{
		name:      "trusted-cold",
		why:       "trusted build at 4000 x 14336, owners walked along a permutation of all n (reuse distance n >> cache 4096): every lookup misses, so core, privacy, index write and read, node and gateway hop all show",
		providers: 4000, owners: 14336, otProbe: true,
	},
	{
		name:      "secure-hot",
		why:       "ModeSecure c=3 wide/prefix/dealer build at 512 x 32768, 1024 pre-warmed owners sampled uniformly: secsum and gmw are construct_s, the gateway cache answers every lookup; the bypass for index changes",
		providers: 512, owners: 32768, secure: true, hot: true, otProbe: true,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

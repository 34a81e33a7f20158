// Package repro's root benchmark suite: one testing.B benchmark per table
// and figure of the ε-PPI paper's evaluation section. Each benchmark runs
// the corresponding experiment end-to-end (at reduced "quick" scale so the
// full suite stays minutes, not hours; `eppi-bench -experiment <id>` runs
// the paper-scale version and EXPERIMENTS.md records those results).
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mathx"
	"repro/internal/workload"
)

func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: int64(i) + 1, Quick: true}
}

func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4a(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4b(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5a(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5b(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6a(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aModelled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6aModelled(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6b(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6c(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SearchCost(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMixing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMixing(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationC(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRebuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRebuild(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDepth(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstructParallel measures the construction hot path itself
// (β thresholds, aggregation, mixing, randomized publication) at several
// worker-pool sizes over the quick Fig4a workload. Output is bit-identical
// across sub-benchmarks; only wall time may differ. On a multi-core
// machine NumCPU workers should beat Workers=1 by roughly the core count
// (bench/ reports the same ratio as core.parallel_speedup).
func BenchmarkConstructParallel(b *testing.B) {
	const samples = 30
	freqs := make([]int, samples)
	eps := make([]float64, samples)
	for i := range freqs {
		freqs[i] = 100
		eps[i] = 0.8
	}
	d, err := workload.GenerateFixed(workload.FixedConfig{
		Providers:   1000,
		Frequencies: freqs,
		Eps:         eps,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.Config{
				Policy:  mathx.PolicyChernoff,
				Gamma:   0.9,
				Mode:    core.ModeTrusted,
				Seed:    1,
				Workers: workers,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Construct(d.Matrix, d.Eps, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

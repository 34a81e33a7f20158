package gmw

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/transport"
)

// BenchmarkAndRounds pins the AND-round allocation behavior of the online
// phase: a long ripple-carry chain maximizes AND depth, so per-layer
// scratch churn (the d/e words and the opened buffer) would dominate
// allocs/op. The buffers are taken from the transport word pool once per
// party per run and reused across every layer; regressions show up
// directly in this benchmark's allocs/op.
func BenchmarkAndRounds(b *testing.B) {
	const width = 64 // 64-deep AND chain under ripple arithmetic
	bld := circuit.NewBuilder()
	x := bld.InputVec(0, width)
	y := bld.InputVec(1, width)
	sum, err := bld.Add(x, y)
	if err != nil {
		b.Fatal(err)
	}
	lt, err := bld.LessThan(sum, circuit.ConstVec(1<<40, width))
	if err != nil {
		b.Fatal(err)
	}
	if err := bld.Output(lt); err != nil {
		b.Fatal(err)
	}
	circ, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	inputs := [][]uint64{make([]uint64, width), make([]uint64, width)}
	for i := 0; i < width; i++ {
		inputs[0][i] = 1234567890123 >> uint(i) & 1
		inputs[1][i] = 987654321098 >> uint(i) & 1
	}
	triples, err := GenTriplesWideSharded(31, 2, circ.Stats().AndGates, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := transport.NewInMem(2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(net, circ, 1, inputs, triples, int64(i), Open); err != nil {
			b.Fatal(err)
		}
		net.Close()
	}
}

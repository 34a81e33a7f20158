// Package netsim models the execution time of the distributed ε-PPI
// protocols on a cluster, standing in for the paper's Emulab testbed.
//
// The model is the standard alpha-beta (latency-bandwidth) cost model used
// in collective-communication analysis, extended with a per-gate compute
// term for circuit-based MPC:
//
//	T = rounds·α + maxBytesPerParty/β + gates·g
//
// where α is the one-way message latency, β the per-party bandwidth and g
// the secure evaluation cost of one gate. The experiments use it in two
// ways: to extrapolate Fig. 6 execution times beyond the party counts that
// fit on one machine, and to sanity-check that the measured in-process runs
// have the same shape as the modelled cluster runs.
package netsim

import (
	"errors"
	"fmt"
	"time"
)

// Config parameterises the cluster model.
type Config struct {
	// LatencyNs is the one-way message latency α in nanoseconds.
	LatencyNs float64
	// BytesPerSecond is the per-party bandwidth β.
	BytesPerSecond float64
	// GateNs is the secure per-gate evaluation cost g in nanoseconds
	// (covers share arithmetic plus amortised triple handling).
	GateNs float64
}

// Emulab returns parameters resembling the paper's testbed: a LAN of
// quad-core Xeons (sub-millisecond RTT, gigabit links) running a
// boolean-circuit MPC runtime whose per-gate cost dominates.
func Emulab() Config {
	return Config{
		LatencyNs:      200_000,     // 0.2 ms one-way LAN latency
		BytesPerSecond: 125_000_000, // 1 Gbit/s
		GateNs:         40_000,      // ~25k secure gates/s/party, FairplayMP-era
	}
}

// ErrBadConfig reports non-positive model parameters.
var ErrBadConfig = errors.New("netsim: config values must be positive")

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LatencyNs <= 0 || c.BytesPerSecond <= 0 || c.GateNs < 0 {
		return fmt.Errorf("%w: %+v", ErrBadConfig, c)
	}
	return nil
}

// Workload describes one protocol execution from a single party's
// perspective (the slowest party bounds the start-to-end time).
type Workload struct {
	// Rounds is the number of sequential communication rounds.
	Rounds int
	// MaxBytesPerParty is the largest number of bytes any single party
	// sends or receives.
	MaxBytesPerParty int
	// Gates is the number of secure gate evaluations on the critical path.
	Gates int
}

// Estimate returns the modelled start-to-end execution time.
func (c Config) Estimate(w Workload) (time.Duration, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if w.Rounds < 0 || w.MaxBytesPerParty < 0 || w.Gates < 0 {
		return 0, fmt.Errorf("netsim: negative workload %+v", w)
	}
	ns := float64(w.Rounds)*c.LatencyNs +
		float64(w.MaxBytesPerParty)/c.BytesPerSecond*1e9 +
		float64(w.Gates)*c.GateNs
	return time.Duration(ns), nil
}

// Distributed construction: runs the paper's actual secure protocol — the
// SecSumShare secure sum over every provider followed by four GMW
// executions among c = 3 coordinators — over real TCP
// loopback sockets, and prints the protocol accounting (rounds, messages,
// bytes, circuit sizes).
//
// This is the configuration of the paper's Figure 6 experiments, shrunk to
// a single machine: every provider is a separate protocol party with its
// own TCP endpoints; nothing but protocol messages crosses between them.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/eppi"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	providerNames := []string{
		"hospital-a", "hospital-b", "hospital-c", "hospital-d",
		"hospital-e", "hospital-f", "hospital-g", "hospital-h",
	}
	net, err := eppi.NewNetwork(providerNames)
	if err != nil {
		return err
	}

	// A handful of patients, including one who visits every hospital (a
	// true common identity that the protocol must hide) and one VIP.
	delegations := []struct {
		provider int
		owner    string
		eps      float64
	}{
		{0, "frequent-flyer", 0.6}, {1, "frequent-flyer", 0.6}, {2, "frequent-flyer", 0.6},
		{3, "frequent-flyer", 0.6}, {4, "frequent-flyer", 0.6}, {5, "frequent-flyer", 0.6},
		{6, "frequent-flyer", 0.6}, {7, "frequent-flyer", 0.6},
		{0, "vip", 0.9}, {2, "vip", 0.9},
		{1, "alice", 0.5}, {4, "alice", 0.5},
		{3, "bob", 0.4},
		{5, "carol", 0.7}, {6, "carol", 0.7},
	}
	for _, d := range delegations {
		if err := net.Delegate(d.provider, eppi.Record{Owner: d.owner, Kind: "chart", Body: "…"}, d.eps); err != nil {
			return err
		}
	}

	fmt.Printf("running secure construction over TCP: %d providers, c=3 coordinators\n", len(providerNames))
	start := time.Now()
	report, err := net.ConstructPPI(eppi.WithSecure(3), eppi.WithTCP(), eppi.WithChernoff(0.9), eppi.WithSeed(3))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	s := report.Secure
	fmt.Printf("construction completed in %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  SecSumShare stage: %d rounds, %d messages, %d bytes across %d providers\n",
		s.SecSumRounds, s.SecSum.Messages, s.SecSum.Bytes, len(providerNames))
	fmt.Printf("  CountBelow circuit: %d gates (%d AND, depth %d)\n",
		s.CountBelowCircuit.Gates, s.CountBelowCircuit.AndGates, s.CountBelowCircuit.AndDepth)
	fmt.Printf("  Reveal circuit:     %d gates (%d AND, depth %d)\n",
		s.RevealCircuit.Gates, s.RevealCircuit.AndGates, s.RevealCircuit.AndDepth)
	fmt.Printf("  coordinator MPC:    %d rounds, %d messages, %d bytes\n",
		s.MPCRounds, s.MPC.Messages, s.MPC.Bytes)
	fmt.Printf("  commons hidden: %d true common(s), λ=%.3f mixing\n", report.CommonCount, report.Lambda)

	for _, o := range report.Owners {
		fmt.Printf("  owner %-15s ε=%.1f β=%.3f hidden=%v\n", o.Owner, o.Epsilon, o.Beta, o.Hidden)
	}

	// The index works exactly like the trusted-mode one.
	net.GrantAll("dr")
	searcher, err := net.NewSearcher("dr")
	if err != nil {
		return err
	}
	res, err := searcher.Search("alice")
	if err != nil {
		return err
	}
	fmt.Printf("two-phase search for alice: %d contacted, %d records (recall 100%%)\n",
		res.Contacted, len(res.Records))
	return nil
}

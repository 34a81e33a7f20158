// Command eppi-query demonstrates the two-phase search against a freshly
// constructed ε-PPI: it builds a synthetic network, constructs the index,
// and then runs QueryPPI + AuthSearch for one or more owners, printing the
// contacted providers, the noise encountered, and the records retrieved.
//
// With -owners-file it instead resolves the listed owners through the
// batched QueryPPI path (one snapshot answers the whole file), printing a
// per-owner row — misses included — instead of running the two-phase
// search.
//
// Usage:
//
//	eppi-query -providers 20 -owners 10 -search owner://site-0.example.org
//	eppi-query -providers 20 -owners 10 -all
//	eppi-query -providers 20 -owners 10 -owners-file targets.txt
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/eppi"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eppi-query:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eppi-query", flag.ContinueOnError)
	providers := fs.Int("providers", 20, "number of providers")
	owners := fs.Int("owners", 10, "number of owner identities")
	search := fs.String("search", "", "owner identity to search (defaults to the first owner)")
	all := fs.Bool("all", false, "search every owner")
	ownersFile := fs.String("owners-file", "", "file listing owners (one per line) to resolve via batched QueryPPI instead of searching")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: *providers,
		Owners:    *owners,
		Exponent:  1.1,
		Seed:      *seed,
	})
	if err != nil {
		return err
	}
	names := make([]string, *providers)
	for i := range names {
		names[i] = fmt.Sprintf("provider-%d", i)
	}
	net, err := eppi.NewNetwork(names)
	if err != nil {
		return err
	}
	// Mirror the synthetic membership matrix into real delegations.
	for j, owner := range d.Names {
		for i := 0; i < *providers; i++ {
			if d.Matrix.Get(i, j) {
				rec := eppi.Record{Owner: owner, Kind: "visit", Body: fmt.Sprintf("record of %s at provider-%d", owner, i)}
				if err := net.Delegate(i, rec, d.Eps[j]); err != nil {
					return err
				}
			}
		}
	}
	// The default policy: Chernoff with success ratio γ = 0.9.
	report, err := net.ConstructPPI(eppi.WithSeed(*seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "index constructed: %d owners, %d commons, λ=%.4f, search cost %d\n",
		len(report.Owners), report.CommonCount, report.Lambda, report.SearchCost)

	if *ownersFile != "" {
		return runBatch(net, *ownersFile, out)
	}

	net.GrantAll("cli-searcher")
	s, err := net.NewSearcher("cli-searcher")
	if err != nil {
		return err
	}

	targets := []string{}
	switch {
	case *all:
		targets = d.Names
	case *search != "":
		targets = []string{*search}
	default:
		targets = []string{d.Names[0]}
	}
	for _, owner := range targets {
		res, err := s.Search(owner)
		if err != nil {
			return fmt.Errorf("search %q: %w", owner, err)
		}
		fmt.Fprintf(out, "\nsearch %s\n", owner)
		fmt.Fprintf(out, "  contacted %d providers: %d true, %d noise, %d denied\n",
			res.Contacted, res.TruePositives, res.FalsePositives, res.Denied)
		fmt.Fprintf(out, "  retrieved %d records\n", len(res.Records))
	}
	return nil
}

// runBatch resolves every owner listed in path (one per line, blank lines
// and #-comments skipped) through one batched QueryPPI call and prints a
// row per owner. Misses are rows, not errors: the batch answers what it
// can and says "not indexed" for the rest.
func runBatch(net *eppi.Network, path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var owners []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		owners = append(owners, line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(owners) == 0 {
		return fmt.Errorf("owners file %s lists no owners", path)
	}
	items, err := net.QueryBatch(context.Background(), owners)
	if err != nil {
		return err
	}
	found := 0
	fmt.Fprintf(out, "\nbatch lookup of %d owners\n", len(items))
	for _, it := range items {
		if !it.Found {
			fmt.Fprintf(out, "  %-24s not indexed\n", it.Owner)
			continue
		}
		found++
		fmt.Fprintf(out, "  %-24s %d candidate providers %v\n", it.Owner, len(it.Providers), it.Providers)
	}
	fmt.Fprintf(out, "found %d/%d\n", found, len(items))
	return nil
}

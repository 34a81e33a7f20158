// Command eppi-collude demonstrates the collusion tolerance of the ε-PPI
// construction protocol: it runs SecSumShare over a synthetic network with
// a recording transport, hands the chosen coalition everything it saw, and
// reports whether the coalition can reconstruct the private identity
// frequencies.
//
// Usage:
//
//	eppi-collude -coalition 0,1        # fails (< c coordinators)
//	eppi-collude -coalition 0,1,2      # succeeds (all coordinators)
//	eppi-collude -coalition 3,4,5,6,7  # fails (no coordinators)
//
// The network is fixed: m = 9 providers, n = 5 owners, c = 3 coordinators
// (providers 0, 1 and 2), seed 1. Shares live in Z_32, the ring secure
// construction derives for nine providers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/collusion"
	"repro/internal/field"
	"repro/internal/secretshare"
	"repro/internal/secsum"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The demonstration network: m providers, n owners, c coordinators.
const (
	providers = 9
	owners    = 5
	c         = 3
	seed      = 1
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eppi-collude:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eppi-collude", flag.ContinueOnError)
	coalitionArg := fs.String("coalition", "0,1", "comma-separated colluding provider ids")
	if err := fs.Parse(args); err != nil {
		return err
	}
	members, err := parseIDs(*coalitionArg)
	if err != nil {
		return err
	}

	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: providers, Owners: owners, Exponent: 1.1, Seed: seed,
	})
	if err != nil {
		return err
	}
	inputs := make([][]uint64, providers)
	for i := range inputs {
		inputs[i] = make([]uint64, owners)
		for j := 0; j < owners; j++ {
			if d.Matrix.Get(i, j) {
				inputs[i][j] = 1
			}
		}
	}

	// The ring construction shares frequencies in (core.constructSecure):
	// Z_{2^W}, W = bits(m+1) + 1.
	f, err := field.NewAdditive(1 << uint(circuit.BitsNeeded(providers+1)+1))
	if err != nil {
		return err
	}
	scheme, err := secretshare.New(f, c)
	if err != nil {
		return err
	}
	inner, err := transport.NewInMem(providers)
	if err != nil {
		return err
	}
	rec := collusion.NewRecording(inner)
	defer rec.Close()
	if _, err := secsum.Run(rec, scheme, inputs, seed); err != nil {
		return fmt.Errorf("SecSumShare: %w", err)
	}

	fmt.Fprintf(out, "SecSumShare completed: m=%d providers, c=%d (tolerates %d colluders)\n",
		providers, c, c-1)
	fmt.Fprintf(out, "coalition: providers %v pool their received messages and inputs\n", members)

	coal, err := collusion.NewCoalition(rec, members, inputs)
	if err != nil {
		return err
	}
	freqs, err := coal.ReconstructFrequencies(scheme, owners)
	switch {
	case errors.Is(err, collusion.ErrInsufficientView):
		fmt.Fprintf(out, "RESULT: reconstruction FAILED — %v\n", err)
		fmt.Fprintln(out, "        (Theorem 4.1: fewer than c coordinator vectors reveal nothing)")
	case err != nil:
		return err
	default:
		fmt.Fprintln(out, "RESULT: reconstruction SUCCEEDED — the coalition holds all c coordinator vectors:")
		for j, got := range freqs {
			truth := d.Matrix.ColCount(j)
			fmt.Fprintf(out, "        %-34s reconstructed=%d truth=%d\n", d.Names[j], got, truth)
		}
		fmt.Fprintln(out, "        (this is exactly the c-collusion boundary the protocol documents)")
	}
	return nil
}

func parseIDs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		id, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad coalition member %q: %w", p, err)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, errors.New("empty coalition")
	}
	return out, nil
}

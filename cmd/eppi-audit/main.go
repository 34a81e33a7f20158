// Command eppi-audit is the offline privacy analyzer: it replays query
// audit logs (written by eppi-serve/eppi-gateway -audit-dir) against an
// epoch store's privacy reports, answering the operator's question the
// live metrics cannot — which high-privacy identities are being
// hammered, and is the published matrix still within its ε bound?
//
// Usage:
//
//	eppi-audit -logs audit/                          # query-load profile
//	eppi-audit -logs audit/ -epoch-dir store/        # joined with ε buckets
//	eppi-audit -logs audit/ -epoch-dir store/ -json  # machine-readable
//
// The analyzer streams every audit file in rotation order, tolerating
// corrupt lines (counted, skipped — a damaged log keeps every other
// record usable), and aggregates per-owner query counts, the epoch mix
// of the traffic, and per-route totals. With -epoch-dir it additionally
// loads and checksum-verifies every epoch's privacy.json, joins the
// top-queried identities with their ε decile from the operator-only
// detail document (privacy_detail.json — per-identity privacy demand
// is deliberately absent from the served report, so the join needs
// filesystem access to the store), flags high-privacy identities under
// heavy query load, and diffs the privacy posture across consecutive
// reports.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/audit"
	"repro/internal/epoch"
	"repro/internal/privacy"
)

// The report ranks the topOwners most-queried identities and flags those
// whose ε decile is highPrivacyBucket or above (ε ≥ 0.7).
const (
	topOwners         = 20
	highPrivacyBucket = 7
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eppi-audit:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eppi-audit", flag.ContinueOnError)
	logs := fs.String("logs", "", "audit log directory (as written by -audit-dir)")
	epochDir := fs.String("epoch-dir", "", "epoch store whose privacy reports to join against")
	asJSON := fs.Bool("json", false, "emit the analysis as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logs == "" {
		return errors.New("no -logs directory given")
	}
	// Files() globs, which treats a missing directory as an empty log —
	// here that would silently report "0 records", so check up front.
	if _, err := os.Stat(*logs); err != nil {
		return fmt.Errorf("audit logs: %w", err)
	}
	a, err := analyze(*logs, *epochDir, topOwners, highPrivacyBucket)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(a)
	}
	render(out, a)
	return nil
}

// OwnerStat is the query-load profile of one identity.
type OwnerStat struct {
	Owner    string `json:"owner"`
	Queries  int    `json:"queries"`
	NotFound int    `json:"not_found"`
	// Bucket is the identity's ε decile label ("0.7-0.8"); empty when no
	// detail document covers the identity (or no -epoch-dir was given).
	Bucket string `json:"eps_bucket,omitempty"`
	// HighPrivacy marks identities at or above the -high-bucket decile:
	// the ones whose query pressure matters most.
	HighPrivacy bool `json:"high_privacy,omitempty"`
}

// EpochStat counts audit records by the epoch they were answered under.
type EpochStat struct {
	Epoch   uint64 `json:"epoch"`
	Entries int    `json:"entries"`
}

// ReportSummary is one epoch's privacy posture, as read (and
// checksum-verified) from the store.
type ReportSummary struct {
	Epoch          uint64  `json:"epoch"`
	Policy         string  `json:"policy"`
	SuccessRatio   float64 `json:"success_ratio"`
	ViolationCount int     `json:"violation_count"`
	MixRatio       float64 `json:"mix_ratio"`
}

// Analysis is the full output document of one eppi-audit run.
type Analysis struct {
	Entries int            `json:"entries"`
	Corrupt int            `json:"corrupt_lines"`
	Routes  map[string]int `json:"routes"`
	// Epochs is the traffic mix by served epoch (0: pre-epoch indexes).
	Epochs    []EpochStat `json:"epochs"`
	TopOwners []OwnerStat `json:"top_owners"`
	// HighPrivacyHot are the top-queried identities whose ε decile is at
	// or above the high-privacy threshold — the paper's common-identity
	// attack surface, observed as live traffic.
	HighPrivacyHot []OwnerStat `json:"high_privacy_hot,omitempty"`
	// Reports summarize every verified privacy report in the store,
	// oldest first; Diffs compare each consecutive pair.
	Reports []ReportSummary       `json:"reports,omitempty"`
	Diffs   []*privacy.DiffResult `json:"diffs,omitempty"`
	// SkippedEpochs lists store epochs whose report was missing or failed
	// verification — silent gaps would read as "all clear".
	SkippedEpochs []uint64 `json:"skipped_epochs,omitempty"`
}

// analyze streams the audit log and joins it with the store's reports.
func analyze(logs, epochDir string, top, highBucket int) (*Analysis, error) {
	a := &Analysis{Routes: map[string]int{}}
	type ownerAgg struct{ queries, notFound int }
	owners := map[string]*ownerAgg{}
	epochs := map[uint64]int{}
	st, err := audit.ScanDir(logs, func(e audit.Entry) error {
		a.Routes[e.Route]++
		epochs[e.Epoch]++
		// A batched lookup is k single lookups travelling together: its
		// rows weigh exactly like GET /v1/query records.
		if (e.Route != "query" && e.Route != "batch") || e.Owner == "" {
			return nil
		}
		o := owners[e.Owner]
		if o == nil {
			o = &ownerAgg{}
			owners[e.Owner] = o
		}
		o.queries++
		if e.Results < 0 {
			o.notFound++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	a.Entries = st.Lines
	a.Corrupt = st.Corrupt
	for n, c := range epochs {
		a.Epochs = append(a.Epochs, EpochStat{Epoch: n, Entries: c})
	}
	sort.Slice(a.Epochs, func(i, j int) bool { return a.Epochs[i].Epoch < a.Epochs[j].Epoch })

	ranked := make([]OwnerStat, 0, len(owners))
	for name, o := range owners {
		ranked = append(ranked, OwnerStat{Owner: name, Queries: o.queries, NotFound: o.notFound})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Queries != ranked[j].Queries {
			return ranked[i].Queries > ranked[j].Queries
		}
		return ranked[i].Owner < ranked[j].Owner
	})

	var reports []*privacy.Report
	var buckets map[string]uint8
	if epochDir != "" {
		if reports, buckets, a.SkippedEpochs, err = storeReports(epochDir); err != nil {
			return nil, err
		}
	}
	// buckets came from the newest epoch carrying a detail document: the
	// decile of an identity is a property of its ε, which does not move
	// between epochs unless the owner re-delegates with a new preference.
	for i := range ranked {
		if b, ok := buckets[ranked[i].Owner]; ok {
			ranked[i].Bucket = privacy.BucketLabel(int(b))
			ranked[i].HighPrivacy = int(b) >= highBucket
		}
	}
	if top < 0 {
		top = 0
	}
	if top > len(ranked) {
		top = len(ranked)
	}
	a.TopOwners = ranked[:top]
	for _, o := range ranked {
		if o.HighPrivacy {
			a.HighPrivacyHot = append(a.HighPrivacyHot, o)
		}
	}

	for i, r := range reports {
		a.Reports = append(a.Reports, ReportSummary{
			Epoch: r.Epoch, Policy: r.Policy, SuccessRatio: r.SuccessRatio,
			ViolationCount: r.ViolationCount, MixRatio: r.MixRatio,
		})
		if i > 0 {
			a.Diffs = append(a.Diffs, privacy.Diff(reports[i-1], r))
		}
	}
	return a, nil
}

// storeReports loads every verified privacy report of the store, oldest
// first, plus the identity→ε-decile map from the newest epoch carrying
// an operator detail document, and the epoch numbers it had to skip (no
// report, or a report failing its checksum). A store without detail
// files (published by a report-only publisher) yields a nil map — the
// join degrades to unlabelled owners rather than failing.
func storeReports(root string) ([]*privacy.Report, map[string]uint8, []uint64, error) {
	dirs, err := os.ReadDir(filepath.Join(root, epoch.EpochsDir))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("epoch store: %w", err)
	}
	var ns []uint64
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		n, err := strconv.ParseUint(d.Name(), 10, 64)
		if err != nil || n == 0 {
			continue // temp publish dirs, foreign files
		}
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	var reports []*privacy.Report
	var buckets map[string]uint8
	var skipped []uint64
	for _, n := range ns {
		rep, err := epoch.LoadReportAt(root, n)
		if err != nil {
			skipped = append(skipped, n)
			continue
		}
		reports = append(reports, rep)
		if det, err := epoch.LoadDetailAt(root, n); err == nil {
			buckets = det.IdentityBuckets
		}
	}
	return reports, buckets, skipped, nil
}

// render writes the human-readable form of the analysis.
func render(out io.Writer, a *Analysis) {
	fmt.Fprintf(out, "audit log: %d records (%d corrupt lines skipped)\n", a.Entries, a.Corrupt)
	routes := make([]string, 0, len(a.Routes))
	for r := range a.Routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		fmt.Fprintf(out, "  route %-8s %d\n", r, a.Routes[r])
	}
	if len(a.Epochs) > 0 {
		fmt.Fprintln(out, "traffic by epoch:")
		for _, e := range a.Epochs {
			fmt.Fprintf(out, "  epoch %-6d %d records\n", e.Epoch, e.Entries)
		}
	}
	if len(a.TopOwners) > 0 {
		fmt.Fprintln(out, "top-queried identities:")
		for _, o := range a.TopOwners {
			mark := ""
			if o.HighPrivacy {
				mark = "  ** high privacy"
			}
			bucket := o.Bucket
			if bucket == "" {
				bucket = "-"
			}
			fmt.Fprintf(out, "  %-34s %5d queries (%d not found)  ε∈%s%s\n",
				o.Owner, o.Queries, o.NotFound, bucket, mark)
		}
	}
	if len(a.HighPrivacyHot) > 0 {
		fmt.Fprintf(out, "high-privacy identities under load: %d\n", len(a.HighPrivacyHot))
	}
	for _, r := range a.Reports {
		fmt.Fprintf(out, "epoch %d report: policy=%s success=%.4f violations=%d mix=%.3f\n",
			r.Epoch, r.Policy, r.SuccessRatio, r.ViolationCount, r.MixRatio)
	}
	for _, d := range a.Diffs {
		fmt.Fprintf(out, "epoch %d → %d: violations %d → %d, success %.4f → %.4f\n",
			d.FromEpoch, d.ToEpoch, d.Violations[0], d.Violations[1],
			d.SuccessRatio[0], d.SuccessRatio[1])
	}
	if len(a.SkippedEpochs) > 0 {
		fmt.Fprintf(out, "WARNING: %d epoch(s) without a verifiable privacy report: %v\n",
			len(a.SkippedEpochs), a.SkippedEpochs)
	}
}

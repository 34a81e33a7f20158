package eppi

import (
	"errors"
	"testing"
)

// buildHospitalNetwork assembles a small HIE-style network used across the
// API tests.
func buildHospitalNetwork(t *testing.T) *Network {
	t.Helper()
	net, err := NewNetwork([]string{"general", "oncology", "womens-health", "county", "childrens"})
	if err != nil {
		t.Fatal(err)
	}
	delegations := []struct {
		provider int
		owner    string
		eps      float64
	}{
		{0, "alice", 0.3},
		{2, "alice", 0.9}, // sensitive visit: stronger preference wins
		{1, "bob", 0.5},
		{0, "carol", 0.2},
		{1, "carol", 0.2},
		{3, "carol", 0.2},
	}
	for _, d := range delegations {
		if err := net.Delegate(d.provider, Record{Owner: d.owner, Kind: "visit", Body: "notes"}, d.eps); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil); err == nil {
		t.Error("empty network accepted")
	}
	net, err := NewNetwork([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.providers) != 2 || net.providers[1].ID() != 1 {
		t.Errorf("providers = %d, want a and b at ids 0 and 1", len(net.providers))
	}
}

func TestDelegateValidation(t *testing.T) {
	net, err := NewNetwork([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Delegate(3, Record{Owner: "x"}, 0.5); !errors.Is(err, ErrBadProvider) {
		t.Errorf("bad provider error = %v", err)
	}
	if err := net.Delegate(0, Record{Owner: ""}, 0.5); err == nil {
		t.Error("empty owner accepted")
	}
	if err := net.Grant(9, "s"); !errors.Is(err, ErrBadProvider) {
		t.Error("Grant out of range accepted")
	}
	if err := net.Revoke(9, "s"); !errors.Is(err, ErrBadProvider) {
		t.Error("Revoke out of range accepted")
	}
}

func TestQueryBeforeConstruct(t *testing.T) {
	net := buildHospitalNetwork(t)
	if _, err := net.Query("alice"); !errors.Is(err, ErrNotConstructed) {
		t.Errorf("error = %v, want ErrNotConstructed", err)
	}
	if _, err := net.NewSearcher("s"); !errors.Is(err, ErrNotConstructed) {
		t.Errorf("error = %v, want ErrNotConstructed", err)
	}
}

func TestConstructEmptyNetwork(t *testing.T) {
	net, err := NewNetwork([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ConstructPPI(); !errors.Is(err, ErrNoOwners) {
		t.Errorf("error = %v, want ErrNoOwners", err)
	}
}

func TestConstructAndQueryRecall(t *testing.T) {
	net := buildHospitalNetwork(t)
	report, err := net.ConstructPPI(WithChernoff(0.9), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Owners) != 3 { // alice, bob, carol (sorted)
		t.Fatalf("owners = %d", len(report.Owners))
	}
	if report.Owners[0].Owner != "alice" || report.Owners[0].Epsilon != 0.9 {
		t.Fatalf("alice report = %+v (ε must be max of delegations)", report.Owners[0])
	}
	// Recall: every true provider must appear in the query result.
	got, err := net.Query("alice")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 2: true}
	found := map[int]bool{}
	for _, id := range got {
		found[id] = true
	}
	for id := range want {
		if !found[id] {
			t.Fatalf("provider %d missing from Query result %v", id, got)
		}
	}
	if report.SearchCost < 5 { // at least the 6 true bits minus overlap
		t.Errorf("SearchCost = %d suspiciously low", report.SearchCost)
	}
}

func TestTwoPhaseSearchEndToEnd(t *testing.T) {
	net := buildHospitalNetwork(t)
	if _, err := net.ConstructPPI(WithSeed(8)); err != nil {
		t.Fatal(err)
	}
	net.GrantAll("dr-bob")
	s, err := net.NewSearcher("dr-bob")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search("carol")
	if err != nil {
		t.Fatal(err)
	}
	if res.TruePositives != 3 || len(res.Records) != 3 {
		t.Fatalf("result = %+v, want 3 true positives", res)
	}
	if res.Contacted < 3 {
		t.Fatalf("Contacted = %d < 3", res.Contacted)
	}
	// Revoked searcher gets denials, not records.
	if err := net.Revoke(0, "dr-bob"); err != nil {
		t.Fatal(err)
	}
	res, err = s.Search("carol")
	if err != nil {
		t.Fatal(err)
	}
	if res.Denied == 0 {
		t.Fatal("revocation did not produce denials")
	}
	if len(res.Records) != 2 {
		t.Fatalf("records after revocation = %d, want 2", len(res.Records))
	}
}

func TestHighEpsilonBroadcasts(t *testing.T) {
	net := buildHospitalNetwork(t)
	// ε = 1 means full broadcast: every provider appears in the result.
	if err := net.Delegate(4, Record{Owner: "vip", Kind: "visit", Body: "x"}, 1.0); err != nil {
		t.Fatal(err)
	}
	rep, err := net.ConstructPPI(WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := net.Query("vip")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(net.providers) {
		t.Fatalf("ε=1 query returned %d of %d providers", len(got), len(net.providers))
	}
	var vip *OwnerReport
	for i := range rep.Owners {
		if rep.Owners[i].Owner == "vip" {
			vip = &rep.Owners[i]
		}
	}
	if vip == nil || !vip.Hidden || vip.Beta != 1 {
		t.Fatalf("vip report = %+v, want hidden β=1", vip)
	}
}

func TestZeroEpsilonPublishesTruth(t *testing.T) {
	net, err := NewNetwork([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Delegate(1, Record{Owner: "open-owner"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.ConstructPPI(WithSeed(10)); err != nil {
		t.Fatal(err)
	}
	got, err := net.Query("open-owner")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("ε=0 query = %v, want exactly [1]", got)
	}
}

func TestSecureConstruction(t *testing.T) {
	net := buildHospitalNetwork(t)
	report, err := net.ConstructPPI(WithSecure(3), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if report.Secure == nil {
		t.Fatal("secure stats missing")
	}
	if report.Secure.SecSum.Messages == 0 || report.Secure.MPC.Messages == 0 {
		t.Fatal("secure traffic not recorded")
	}
	got, err := net.Query("carol")
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, id := range got {
		found[id] = true
	}
	for _, id := range []int{0, 1, 3} {
		if !found[id] {
			t.Fatalf("secure construction lost recall: %v", got)
		}
	}
}

func TestSecureConstructionWithOT(t *testing.T) {
	// Small network + c=2 keeps the public-key preprocessing fast.
	net, err := NewNetwork([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Delegate(1, Record{Owner: "alice"}, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := net.Delegate(3, Record{Owner: "alice"}, 0.5); err != nil {
		t.Fatal(err)
	}
	report, err := net.ConstructPPI(WithSecure(2), WithOTPreprocessing(), WithSeed(33))
	if err != nil {
		t.Fatal(err)
	}
	if report.Secure == nil {
		t.Fatal("secure stats missing")
	}
	got, err := net.Query("alice")
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, id := range got {
		found[id] = true
	}
	if !found[1] || !found[3] {
		t.Fatalf("recall lost: %v", got)
	}
}

func TestSecureConstructionOverTCP(t *testing.T) {
	net := buildHospitalNetwork(t)
	if _, err := net.ConstructPPI(WithSecure(3), WithTCP(), WithSeed(12)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Query("alice"); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructionReplacesIndex(t *testing.T) {
	net := buildHospitalNetwork(t)
	if _, err := net.ConstructPPI(WithSeed(13)); err != nil {
		t.Fatal(err)
	}
	// New delegation becomes visible only after re-construction.
	if err := net.Delegate(4, Record{Owner: "dave"}, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Query("dave"); err == nil {
		t.Fatal("unindexed owner should be unknown")
	}
	if _, err := net.ConstructPPI(WithSeed(14)); err != nil {
		t.Fatal(err)
	}
	got, err := net.Query("dave")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("dave missing after re-construction")
	}
}

func TestWithPolicyOptions(t *testing.T) {
	net := buildHospitalNetwork(t)
	for _, opt := range []Option{
		WithChernoff(0.95),
		WithWorkers(1),
	} {
		if _, err := net.ConstructPPI(opt, WithSeed(15)); err != nil {
			t.Fatalf("option failed: %v", err)
		}
	}
}

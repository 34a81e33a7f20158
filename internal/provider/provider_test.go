package provider

import (
	"errors"
	"sync"
	"testing"
)

func TestDelegateValidation(t *testing.T) {
	p := New(0, "general-hospital")
	if err := p.Delegate(Record{Owner: "", Body: "x"}, 0.5); !errors.Is(err, ErrBadDelegation) {
		t.Fatalf("empty owner error = %v", err)
	}
	if err := p.Delegate(Record{Owner: "alice"}, -0.1); !errors.Is(err, ErrBadDelegation) {
		t.Fatalf("negative ε error = %v", err)
	}
	if err := p.Delegate(Record{Owner: "alice"}, 1.1); !errors.Is(err, ErrBadDelegation) {
		t.Fatalf("ε > 1 error = %v", err)
	}
	if err := p.Delegate(Record{Owner: "alice", Kind: "radiology", Body: "scan"}, 0.7); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonKeepsMaximum(t *testing.T) {
	p := New(0, "p")
	if err := p.Delegate(Record{Owner: "alice"}, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := p.Delegate(Record{Owner: "alice"}, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := p.Delegate(Record{Owner: "alice"}, 0.1); err != nil {
		t.Fatal(err)
	}
	e, ok := p.Epsilon("alice")
	if !ok || e != 0.9 {
		t.Fatalf("ε = %v ok=%v, want 0.9", e, ok)
	}
	if _, ok := p.Epsilon("nobody"); ok {
		t.Fatal("Epsilon reported unknown owner")
	}
}

func TestAuthSearchACL(t *testing.T) {
	p := New(1, "clinic")
	if err := p.Delegate(Record{Owner: "bob", Kind: "rx", Body: "aspirin"}, 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AuthSearch("dr-eve", "bob"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unauthorized search error = %v", err)
	}
	p.Grant("dr-eve")
	recs, err := p.AuthSearch("dr-eve", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Body != "aspirin" {
		t.Fatalf("records = %v", recs)
	}
	// Authorized search for an absent owner: empty, no error (false positive).
	recs, err = p.AuthSearch("dr-eve", "carol")
	if err != nil || len(recs) != 0 {
		t.Fatalf("absent owner: %v, %v", recs, err)
	}
	p.Revoke("dr-eve")
	if _, err := p.AuthSearch("dr-eve", "bob"); !errors.Is(err, ErrUnauthorized) {
		t.Fatal("revocation ineffective")
	}
}

func TestAuthSearchCopiesRecords(t *testing.T) {
	p := New(0, "p")
	if err := p.Delegate(Record{Owner: "a", Body: "original"}, 0); err != nil {
		t.Fatal(err)
	}
	p.Grant("s")
	recs, err := p.AuthSearch("s", "a")
	if err != nil {
		t.Fatal(err)
	}
	recs[0].Body = "tampered"
	recs2, err := p.AuthSearch("s", "a")
	if err != nil {
		t.Fatal(err)
	}
	if recs2[0].Body != "original" {
		t.Fatal("AuthSearch exposed internal record storage")
	}
}

func TestLocalVectorAndOwners(t *testing.T) {
	p := New(2, "p")
	for _, owner := range []string{"zed", "alice"} {
		if err := p.Delegate(Record{Owner: owner}, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	owners := p.Owners()
	if len(owners) != 2 || owners[0] != "alice" || owners[1] != "zed" {
		t.Fatalf("Owners = %v", owners)
	}
	vec := p.LocalVector([]string{"alice", "bob", "zed"})
	want := []bool{true, false, true}
	for i := range want {
		if vec[i] != want[i] {
			t.Fatalf("LocalVector = %v, want %v", vec, want)
		}
	}
	if !p.Has("alice") || p.Has("bob") {
		t.Fatal("Has wrong")
	}
	if p.RecordCount() != 2 {
		t.Fatalf("RecordCount = %d", p.RecordCount())
	}
	if p.ID() != 2 {
		t.Fatal("ID wrong")
	}
}

func TestConcurrentDelegateAndSearch(t *testing.T) {
	p := New(0, "p")
	p.Grant("s")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				if err := p.Delegate(Record{Owner: "alice", Body: "r"}, 0.5); err != nil {
					panic(err)
				}
				if _, err := p.AuthSearch("s", "alice"); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	if p.RecordCount() != 1600 {
		t.Fatalf("RecordCount = %d, want 1600", p.RecordCount())
	}
}

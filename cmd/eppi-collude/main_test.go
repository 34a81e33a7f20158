package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func TestColludeBelowThreshold(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-coalition", "0,1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "FAILED") {
		t.Fatalf("sub-threshold coalition did not fail:\n%s", out.String())
	}
}

func TestColludeFullCoordinators(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-coalition", "0,1,2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "SUCCEEDED") {
		t.Fatalf("full-coordinator coalition did not succeed:\n%s", s)
	}
	// Every owner's frequency comes back exact: the ring holds it.
	rows := regexp.MustCompile(`reconstructed=(\d+) truth=(\d+)`).FindAllStringSubmatch(s, -1)
	if len(rows) != owners {
		t.Fatalf("%d reconstructed owners, want %d:\n%s", len(rows), owners, s)
	}
	for _, r := range rows {
		if r[1] != r[2] {
			t.Errorf("reconstructed %s, truth %s", r[1], r[2])
		}
	}
}

func TestColludeParseErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-coalition", ""}, &out); err == nil {
		t.Error("empty coalition accepted")
	}
	if err := run([]string{"-coalition", "a,b"}, &out); err == nil {
		t.Error("non-numeric coalition accepted")
	}
	if err := run([]string{"-coalition", "99"}, &out); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestParseIDs(t *testing.T) {
	got, err := parseIDs(" 1, 2 ,3 ")
	if err != nil || len(got) != 3 || got[2] != 3 {
		t.Fatalf("parseIDs = %v, %v", got, err)
	}
}

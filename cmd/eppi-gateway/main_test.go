package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

func TestParseShards(t *testing.T) {
	got, err := parseShards("http://a:1,http://b:2; http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 1 {
		t.Fatalf("parseShards = %v", got)
	}
	if got[0][1] != "http://b:2" || got[1][0] != "http://c:3" {
		t.Fatalf("parseShards = %v", got)
	}
	for _, bad := range []string{"", ";", "a:1", "http://a:1;;http://b:2"} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("parseShards(%q) accepted", bad)
		}
	}
}

// TestHostBinaryIsConstructionFree pins the paper's trust boundary: the
// gateway runs on the untrusted host that only ever sees M′, so it must
// not link the providers' construction engine or its MPC substrate.
func TestHostBinaryIsConstructionFree(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	for _, pkg := range []string{"core", "secsum", "gmw", "ot", "circuit", "transport", "secretshare", "workload"} {
		if slices.Contains(deps, "repro/internal/"+pkg) {
			t.Errorf("eppi-gateway links repro/internal/%s", pkg)
		}
	}
}

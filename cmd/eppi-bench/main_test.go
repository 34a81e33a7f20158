package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig6b", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fig6b", "e-PPI", "Pure-MPC", "completed in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig6b", "-quick", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if first != "parties,e-PPI,Pure-MPC" {
		t.Fatalf("csv header = %q", first)
	}
	if strings.Contains(out.String(), "completed in") {
		t.Error("csv output polluted with human text")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "nonsense"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-format", "xml"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"-transport", "tcp"}, &out); err == nil {
		t.Error("-transport accepted")
	}
	if err := run([]string{"-bogus-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestSnapshotFanout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "searchcost", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== metrics snapshot ==") {
		t.Fatalf("no snapshot section:\n%s", s)
	}
	if !strings.Contains(s, `"eppi_index_query_fanout"`) {
		t.Errorf("snapshot missing fan-out histogram:\n%s", s)
	}
}

func TestSnapshotTransportBytes(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig6a", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		`"eppi_transport_bytes_total"`,
		`"eppi_secsum_phase_seconds"`,
		`"eppi_gmw_phase_seconds"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
}

func TestSnapshotDisabled(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "searchcost", "-quick", "-metrics=false"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "metrics snapshot") {
		t.Error("-metrics=false still emitted a snapshot")
	}
	var csv bytes.Buffer
	if err := run([]string{"-experiment", "searchcost", "-quick", "-format", "csv"}, &csv); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(csv.String(), "metrics snapshot") {
		t.Error("csv output polluted with metrics snapshot")
	}
}

func TestRunTableExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "ablation-c", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "tolerates") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	exec := filepath.Join(dir, "trace.out")
	var out bytes.Buffer
	err := run([]string{"-experiment", "fig6b", "-quick", "-metrics=false",
		"-cpuprofile", cpu, "-memprofile", mem, "-exectrace", exec}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem, exec} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile %s not written: %v", path, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

func TestRunProfilingBadPath(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-experiment", "fig6b", "-quick",
		"-cpuprofile", filepath.Join(t.TempDir(), "no-such-dir", "cpu.pprof")}, &out)
	if err == nil {
		t.Fatal("unwritable cpuprofile path accepted")
	}
}

// TestExperimentHelpListsTable checks that the -experiment help printed by
// -h names exactly the experiments the table runs, plus all.
func TestExperimentHelpListsTable(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	err = run([]string{"-h"}, &bytes.Buffer{})
	os.Stderr = stderr
	if err == nil {
		t.Fatal("-h returned no error")
	}
	usage, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(usage), "experiment id (")
	list, _, ok2 := strings.Cut(rest, ")")
	if !ok || !ok2 {
		t.Fatalf("no experiment list in usage:\n%s", usage)
	}
	named := map[string]bool{}
	for _, id := range strings.Split(strings.TrimSuffix(list, ", or all"), ", ") {
		named[id] = true
	}
	for _, exp := range experimentTable {
		if !named[exp.id] {
			t.Errorf("help omits experiment %q", exp.id)
		}
		delete(named, exp.id)
	}
	for id := range named {
		t.Errorf("help names %q, which the table does not run", id)
	}
}

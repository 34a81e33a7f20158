package netsim

import (
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	if err := Emulab().Validate(); err != nil {
		t.Fatalf("Emulab invalid: %v", err)
	}
	bad := []Config{
		{LatencyNs: 0, BytesPerSecond: 1, GateNs: 1},
		{LatencyNs: 1, BytesPerSecond: 0, GateNs: 1},
		{LatencyNs: 1, BytesPerSecond: 1, GateNs: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEstimateComponents(t *testing.T) {
	c := Config{LatencyNs: 1000, BytesPerSecond: 1e9, GateNs: 10}
	// Pure latency.
	d, err := c.Estimate(Workload{Rounds: 5})
	if err != nil || d != 5*time.Microsecond {
		t.Fatalf("latency term: %v err=%v", d, err)
	}
	// Pure bandwidth: 1e9 B at 1e9 B/s = 1 s.
	d, err = c.Estimate(Workload{MaxBytesPerParty: 1e9})
	if err != nil || d != time.Second {
		t.Fatalf("bandwidth term: %v err=%v", d, err)
	}
	// Pure compute.
	d, err = c.Estimate(Workload{Gates: 100})
	if err != nil || d != time.Microsecond {
		t.Fatalf("gate term: %v err=%v", d, err)
	}
}

func TestEstimateRejectsNegative(t *testing.T) {
	c := Emulab()
	if _, err := c.Estimate(Workload{Rounds: -1}); err == nil {
		t.Error("negative rounds accepted")
	}
	if _, err := c.Estimate(Workload{Gates: -1}); err == nil {
		t.Error("negative gates accepted")
	}
	if _, err := (Config{}).Estimate(Workload{}); err == nil {
		t.Error("invalid config accepted in Estimate")
	}
}

func TestEstimateMonotone(t *testing.T) {
	c := Emulab()
	base, err := c.Estimate(Workload{Rounds: 10, MaxBytesPerParty: 1000, Gates: 100})
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := c.Estimate(Workload{Rounds: 20, MaxBytesPerParty: 2000, Gates: 200})
	if err != nil {
		t.Fatal(err)
	}
	if bigger <= base {
		t.Fatalf("estimate not monotone: %v vs %v", base, bigger)
	}
}

package experiments

import (
	"strconv"
	"testing"
)

func TestAblationMixing(t *testing.T) {
	table, err := AblationMixing(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	var onConf, offConf float64
	if _, err := sscan(table.Rows[0][2], &onConf); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(table.Rows[1][2], &offConf); err != nil {
		t.Fatal(err)
	}
	// Without mixing the attack is (nearly) certain; with mixing it is
	// bounded near 1-ξ = 0.2.
	if offConf < 0.99 {
		t.Errorf("mixing-off confidence %v, want ≈ 1", offConf)
	}
	if onConf > 0.35 {
		t.Errorf("mixing-on confidence %v, want ≲ 0.25", onConf)
	}
	if table.Rows[1][3] != "NO PROTECT" {
		t.Errorf("mixing-off degree = %q", table.Rows[1][3])
	}
	if table.Rows[0][3] != "ε-PRIVATE" {
		t.Errorf("mixing-on degree = %q", table.Rows[0][3])
	}
}

func TestAblationRebuild(t *testing.T) {
	table, err := AblationRebuild(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	var first, last float64
	if _, err := sscan(table.Rows[0][2], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(table.Rows[len(table.Rows)-1][2], &last); err != nil {
		t.Fatal(err)
	}
	// One snapshot respects the ε bound; six fresh rebuilds break it badly.
	if first > 0.3 {
		t.Errorf("single-snapshot confidence %v, want ≈ 0.2", first)
	}
	if last < 0.9 {
		t.Errorf("six-rebuild confidence %v, want ≈ 1", last)
	}
	// Same seed while ε drifts: the snapshots nest, so the attacker is held
	// to the weakest single epoch however many they intersect.
	prevSurv := 0.0
	for k, row := range table.Rows {
		var surv, conf, bound float64
		for i, dst := range []*float64{&surv, &conf, &bound} {
			if _, err := sscan(row[4+i], dst); err != nil {
				t.Fatal(err)
			}
		}
		if conf > bound+0.1 {
			t.Errorf("same-seed confidence after %d snapshots %v, want ≤ 1−min ε = %v", k+1, conf, bound)
		}
		if k > 0 && surv > prevSurv {
			t.Errorf("same-seed survivors grew from %v to %v at snapshot %d", prevSurv, surv, k+1)
		}
		prevSurv = surv
	}
}

func TestAblationC(t *testing.T) {
	table, err := AblationC(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// AND-gate count and SecSumShare traffic must grow with c.
	gates := make([]int, len(table.Rows))
	msgs := make([]int, len(table.Rows))
	for i, row := range table.Rows {
		g, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = g
		mm, err := strconv.Atoi(row[4])
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = mm
	}
	for i := 1; i < len(gates); i++ {
		if gates[i] <= gates[i-1] {
			t.Errorf("AND gates not increasing in c: %v", gates)
		}
		if msgs[i] <= msgs[i-1] {
			t.Errorf("SecSumShare messages not increasing in c: %v", msgs)
		}
	}
}

package experiments

import (
	"strings"
	"testing"
)

// smallParams keeps test sweeps fast while preserving the shapes.
func smallParams() Params {
	return Params{N: 128, Procs: []int{4, 8}, Ratios: []int{4, 1}}
}

func TestTable1Shapes(t *testing.T) {
	res, err := Table1(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for ri := range res.Ratios {
		for pi := range res.Procs {
			col, row := res.Col[ri][pi], res.Row[ri][pi]
			if col <= row {
				t.Errorf("ratio %s P=%d: column-slab %.2f should exceed row-slab %.2f",
					ratioLabel(res.Ratios[ri]), res.Procs[pi], col, row)
			}
			// In-core never loses; it wins strictly whenever the
			// slab ratio forces re-reads (denominator > 1). At
			// ratio 1 the row-slab pattern reads each array once,
			// matching in-core in this model.
			if res.Ratios[ri] > 1 && res.InCore[pi] >= row {
				t.Errorf("P=%d ratio 1/%d: in-core %.2f should beat row-slab %.2f",
					res.Procs[pi], res.Ratios[ri], res.InCore[pi], row)
			}
			if res.InCore[pi] > row+1e-9 {
				t.Errorf("P=%d: in-core %.2f slower than row-slab %.2f",
					res.Procs[pi], res.InCore[pi], row)
			}
		}
	}
	// Smaller slab ratio (earlier row, denom 4) must not be faster than
	// ratio 1 (later row).
	for pi := range res.Procs {
		if res.Col[0][pi] < res.Col[1][pi] {
			t.Errorf("P=%d: column-slab ratio 1/4 (%.2f) faster than ratio 1 (%.2f)",
				res.Procs[pi], res.Col[0][pi], res.Col[1][pi])
		}
		if res.Row[0][pi] < res.Row[1][pi] {
			t.Errorf("P=%d: row-slab ratio 1/4 (%.2f) faster than ratio 1 (%.2f)",
				res.Procs[pi], res.Row[0][pi], res.Row[1][pi])
		}
	}
}

func TestTable1FormatAndCSV(t *testing.T) {
	res, err := Table1(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	for _, want := range []string{"Table 1", "128x128", "1/4", "in-core"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "variant,slab_ratio,procs,seconds\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	// 2 ratios * 2 procs * 2 variants + 2 in-core rows + header.
	if got := strings.Count(csv, "\n"); got != 11 {
		t.Errorf("CSV rows = %d, want 11", got)
	}
}

func TestFig10(t *testing.T) {
	res, err := Fig10(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	if !strings.Contains(out, "Figure 10") || !strings.Contains(out, "P=8") {
		t.Errorf("Fig10 format wrong:\n%s", out)
	}
}

func TestTable2Shapes(t *testing.T) {
	res, err := Table2(Params{N: 256, Procs: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	// Growing either slab must not hurt.
	for i := 1; i < len(res.Sizes); i++ {
		if res.VaryB[i] > res.VaryB[i-1]+1e-9 {
			t.Errorf("vary-B not monotone: %v", res.VaryB)
		}
		if res.VaryA[i] > res.VaryA[i-1]+1e-9 {
			t.Errorf("vary-A not monotone: %v", res.VaryA)
		}
	}
	// The Table 2 conclusion: growing A beats growing B at equal total.
	last := len(res.Sizes) - 1
	if res.VaryA[last] > res.VaryB[last] {
		t.Errorf("A-heavy %.2f should beat B-heavy %.2f", res.VaryA[last], res.VaryB[last])
	}
	// And the A-heavy split beats the even split of the same total.
	if res.BestSeconds > res.EvenSeconds {
		t.Errorf("A-heavy split %.2f should beat even split %.2f", res.BestSeconds, res.EvenSeconds)
	}
	out := res.Format()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "vary B") {
		t.Errorf("format wrong:\n%s", out)
	}
	if !strings.Contains(res.CSV(), "vary_b,") {
		t.Error("CSV missing sweep rows")
	}
}

func TestEqCheckAllMatch(t *testing.T) {
	res, err := EqCheck(Params{N: 128, Procs: []int{4, 8}, Ratios: []int{8, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllMatch() {
		t.Fatalf("analytic formulas disagree with measurement:\n%s", res.Format())
	}
	if len(res.Rows) != 2*3*2 {
		t.Errorf("rows = %d, want 12", len(res.Rows))
	}
	if !strings.Contains(res.Format(), "all match: true") {
		t.Error("format should state all match")
	}
}

func TestAblations(t *testing.T) {
	res, err := Ablations(Params{N: 128, Procs: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetch >= res.Baseline {
		t.Errorf("prefetch should overlap I/O: %.3f vs %.3f", res.Prefetch, res.Baseline)
	}
	if res.SievedRequests >= res.PlainRequests {
		t.Errorf("sieving should reduce requests: %d vs %d", res.SievedRequests, res.PlainRequests)
	}
	if res.SievedBytes <= res.PlainBytes {
		t.Errorf("sieving should move more bytes: %d vs %d", res.SievedBytes, res.PlainBytes)
	}
	if res.DeltaRatio <= 1 {
		t.Errorf("reorganization should win on Delta: ratio %.2f", res.DeltaRatio)
	}
	out := res.Format()
	for _, want := range []string{"prefetch", "sieving", "memory policies", "Delta"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation format missing %q:\n%s", want, out)
		}
	}
}

func TestPaperScaleLabels(t *testing.T) {
	// At paper scale the side-by-side columns appear. Use the real
	// configuration but do not run it — just check the predicate.
	r := &Table1Result{N: 1024, Procs: paperProcs, Ratios: paperRatios}
	if !r.atPaperScale() {
		t.Error("paper-scale predicate wrong")
	}
	r2 := &Table2Result{N: 2048, Procs: 16, Sizes: paperTable2Sizes}
	if !r2.atPaperScale() {
		t.Error("table 2 paper-scale predicate wrong")
	}
}

func TestRealModeSmall(t *testing.T) {
	// Tiny real-mode sweeps move real data and check every C against the
	// closed form; the statistics equal the accounting-only run's.
	p := Params{N: 32, Procs: []int{4}, Ratios: []int{2}, Real: true}
	real1, err := Table1(p)
	if err != nil {
		t.Fatal(err)
	}
	real2, err := Table2(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Real = false
	phantom1, err := Table1(p)
	if err != nil {
		t.Fatal(err)
	}
	phantom2, err := Table2(p)
	if err != nil {
		t.Fatal(err)
	}
	if real1.Format() != phantom1.Format() || real2.Format() != phantom2.Format() {
		t.Errorf("real and accounting-only runs differ:\n%s%s\n%s%s",
			real1.Format(), real2.Format(), phantom1.Format(), phantom2.Format())
	}
}

func TestLUSweep(t *testing.T) {
	res, err := LU(Params{N: 64, Procs: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("too few rows: %+v", res.Rows)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].PanelReads >= res.Rows[i-1].PanelReads {
			t.Errorf("panel reads should fall with wider panels: %+v", res.Rows)
		}
		if res.Rows[i].Seconds > res.Rows[i-1].Seconds+1e-9 {
			t.Errorf("time should fall with wider panels: %+v", res.Rows)
		}
	}
	if !strings.Contains(res.Format(), "panel width") {
		t.Error("format wrong")
	}
}

package lu

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
)

func TestFactorizationCorrect(t *testing.T) {
	for _, tc := range []struct{ n, p, w int }{
		{16, 1, 4},
		{16, 2, 4},
		{16, 2, 8},
		{32, 4, 4},
		{32, 4, 8},
		{48, 4, 3},
		{64, 8, 4},
	} {
		t.Run(fmt.Sprintf("n=%d/p=%d/w=%d", tc.n, tc.p, tc.w), func(t *testing.T) {
			r, err := Run(sim.Delta(tc.p), Config{N: tc.n, PanelWidth: tc.w})
			if err != nil {
				t.Fatal(err)
			}
			diff, err := r.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if diff > 1e-9 {
				t.Errorf("L*U deviates from A by %g", diff)
			}
		})
	}
}

func TestPanelWidthIndependence(t *testing.T) {
	// Different panel widths must produce (numerically near-identical)
	// factors of the same matrix; verify both against A.
	for _, w := range []int{2, 4, 8, 16} {
		r, err := Run(sim.Delta(2), Config{N: 32, PanelWidth: w})
		if err != nil {
			t.Fatal(err)
		}
		diff, err := r.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if diff > 1e-9 {
			t.Errorf("w=%d: deviation %g", w, diff)
		}
	}
}

func TestIOGrowsQuadraticallyInPanelCount(t *testing.T) {
	// Left-looking LU re-reads every factored panel for each later
	// panel: with twice the panels, panel reads roughly quadruple.
	reads := func(w int) int64 {
		r, err := Run(sim.Delta(2), Config{N: 64, PanelWidth: w})
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.TotalIO().SlabReads
	}
	coarse := reads(16) // 4 panels -> 4*5/2 = 10 panel reads
	fine := reads(8)    // 8 panels -> 8*9/2 = 36 panel reads
	if coarse != 10 || fine != 36 {
		t.Errorf("panel reads = %d and %d, want 10 and 36 (k(k+1)/2)", coarse, fine)
	}
}

func TestLargerPanelsReduceSimulatedTime(t *testing.T) {
	// The slab-size effect of Figure 10, on LU: more memory per panel,
	// less I/O, less simulated time.
	timeFor := func(w int) float64 {
		r, err := Run(sim.Delta(4), Config{N: 64, PanelWidth: w})
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.ElapsedSeconds()
	}
	small, large := timeFor(2), timeFor(16)
	if large >= small {
		t.Errorf("larger panels should be faster: w=16 %.3fs vs w=2 %.3fs", large, small)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(sim.Delta(2), Config{N: 0, PanelWidth: 4}); err == nil {
		t.Error("zero N should fail")
	}
	if _, err := Run(sim.Delta(2), Config{N: 16, PanelWidth: 0}); err == nil {
		t.Error("zero panel width should fail")
	}
	if _, err := Run(sim.Delta(3), Config{N: 16, PanelWidth: 4}); err == nil {
		t.Error("N not divisible by P should fail")
	}
	if _, err := Run(sim.Delta(2), Config{N: 16, PanelWidth: 3}); err == nil {
		t.Error("panel width not dividing local columns should fail")
	}
}

func TestFillADiagonallyDominant(t *testing.T) {
	f := FillA(16)
	for i := 0; i < 16; i++ {
		off := 0.0
		for j := 0; j < 16; j++ {
			if j != i {
				off += f(i, j)
			}
		}
		if f(i, i) <= off {
			t.Fatalf("row %d not diagonally dominant: %g vs %g", i, f(i, i), off)
		}
	}
}

// TestCloseRemovesFiles: Close leaves nothing behind on the file system
// the factorization ran on, and neither does a run that fails.
func TestCloseRemovesFiles(t *testing.T) {
	mem := iosim.NewMemFS()
	r, err := Run(sim.Delta(2), Config{N: 16, PanelWidth: 4, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Names()) == 0 {
		t.Fatal("the run left no local array files to remove")
	}
	if _, err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if names := mem.Names(); len(names) != 0 {
		t.Errorf("files left after Close: %v", names)
	}

	mem = iosim.NewMemFS()
	chaos := iosim.NewChaosFS(mem, iosim.ChaosConfig{
		Schedule: []iosim.ScheduledFault{{File: "lu.p1.laf", Op: 3, Kind: iosim.KindPermanent}},
	})
	if _, err := Run(sim.Delta(2), Config{N: 16, PanelWidth: 4, FS: chaos}); err == nil {
		t.Fatal("a permanent fault on lu.p1.laf should fail the run")
	}
	if names := mem.Names(); len(names) != 0 {
		t.Errorf("files left after a failed run: %v", names)
	}
}

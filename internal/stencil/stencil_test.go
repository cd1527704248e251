package stencil

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

func initGrid(n int) func(i, j int) float64 {
	return func(i, j int) float64 {
		switch {
		case i == 0:
			return 100
		case i == n-1:
			return -50
		default:
			return float64((i*7+j*3)%11) - 5
		}
	}
}

// runSweeps executes iters Jacobi sweeps on an n x n grid over p
// processors and returns the assembled global result.
func runSweeps(t *testing.T, n, p, iters, slabCols int, opts oocarray.Options) *matrix.Matrix {
	t.Helper()
	fs := iosim.NewMemFS()
	out := matrix.New(n, n)
	blocks := make([]*matrix.Matrix, p)
	starts := make([]int, p)
	_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
		g, err := New(proc, disk, "grid", n, opts)
		if err != nil {
			return err
		}
		defer g.Close()
		if err := g.Fill(initGrid(n)); err != nil {
			return err
		}
		for it := 0; it < iters; it++ {
			if err := g.Sweep(slabCols, 10, Jacobi); err != nil {
				return err
			}
		}
		m, err := g.ReadLocal()
		if err != nil {
			return err
		}
		blocks[proc.Rank()] = m
		gi, _ := g.cur.GlobalIndex(0, 0)
		starts[proc.Rank()] = gi
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, block := range blocks {
		for j := 0; j < n; j++ {
			for i := 0; i < block.Rows; i++ {
				out.Set(starts[r]+i, j, block.At(i, j))
			}
		}
	}
	return out
}

func TestSweepMatchesReferenceExactly(t *testing.T) {
	for _, tc := range []struct{ n, p, iters, slab int }{
		{16, 1, 3, 4},
		{16, 2, 3, 4},
		{16, 4, 5, 16},
		{24, 3, 4, 5},
		{20, 4, 2, 3},
	} {
		t.Run(fmt.Sprintf("n=%d/p=%d", tc.n, tc.p), func(t *testing.T) {
			got := runSweeps(t, tc.n, tc.p, tc.iters, tc.slab, oocarray.Options{})
			want := Reference(tc.n, tc.iters, initGrid(tc.n), Jacobi)
			if !matrix.Equal(got, want) {
				t.Fatalf("out-of-core sweep differs from reference (maxdiff %g)",
					matrix.MaxAbsDiff(got, want))
			}
		})
	}
}

func TestSweepRaggedRows(t *testing.T) {
	// 10 rows over 3 processors: blocks of 4, 4, 2.
	got := runSweeps(t, 10, 3, 3, 4, oocarray.Options{})
	want := Reference(10, 3, initGrid(10), Jacobi)
	if !matrix.Equal(got, want) {
		t.Fatal("ragged distribution broke the sweep")
	}
}

func TestSweepWithSieving(t *testing.T) {
	got := runSweeps(t, 16, 4, 3, 4, oocarray.Options{Sieve: true})
	want := Reference(16, 3, initGrid(16), Jacobi)
	if !matrix.Equal(got, want) {
		t.Fatal("sieving changed the stencil result")
	}
}

func TestCustomUpdateFunc(t *testing.T) {
	// A damped update exercises the center argument.
	damped := func(c, up, down, left, right float64) float64 {
		return 0.5*c + 0.125*(up+down+left+right)
	}
	got := runSweeps(t, 16, 2, 2, 8, oocarray.Options{})
	_ = got
	fs := iosim.NewMemFS()
	blocks := make([]*matrix.Matrix, 2)
	_, err := mp.Run(sim.Delta(2), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), nil)
		g, err := New(proc, disk, "g", 16, oocarray.Options{})
		if err != nil {
			return err
		}
		if err := g.Fill(initGrid(16)); err != nil {
			return err
		}
		if err := g.Sweep(4, 20, damped); err != nil {
			return err
		}
		m, err := g.ReadLocal()
		if err != nil {
			return err
		}
		blocks[proc.Rank()] = m
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(16, 1, initGrid(16), damped)
	for r, block := range blocks {
		for j := 0; j < 16; j++ {
			for i := 0; i < 8; i++ {
				if block.At(i, j) != want.At(r*8+i, j) {
					t.Fatalf("damped sweep wrong at (%d,%d)", r*8+i, j)
				}
			}
		}
	}
}

func TestSweepValidation(t *testing.T) {
	fs := iosim.NewMemFS()
	_, err := mp.Run(sim.Delta(2), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), nil)
		g, err := New(proc, disk, "g", 8, oocarray.Options{})
		if err != nil {
			return err
		}
		if err := g.Sweep(0, 30, Jacobi); err == nil {
			return fmt.Errorf("zero slabCols should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mp.Run(sim.Delta(4), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), nil)
		if _, err := New(proc, disk, "tiny", 2, oocarray.Options{}); err == nil {
			return fmt.Errorf("n < P should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepIOStats(t *testing.T) {
	// One sweep with slabCols=4 on a 16x16 grid over 2 procs: 2 boundary
	// row reads + 4 halo slab reads + 4 output writes per processor.
	fs := iosim.NewMemFS()
	stats, err := mp.Run(sim.Delta(2), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
		g, err := New(proc, disk, "g", 16, oocarray.Options{})
		if err != nil {
			return err
		}
		if err := g.Fill(initGrid(16)); err != nil {
			return err
		}
		return g.Sweep(4, 40, Jacobi)
	})
	if err != nil {
		t.Fatal(err)
	}
	io := stats.TotalIO()
	if want := int64(2 * (2 + 4)); io.SlabReads != want {
		t.Errorf("slab reads = %d, want %d", io.SlabReads, want)
	}
	if want := int64(2 * 4); io.SlabWrites != want {
		t.Errorf("slab writes = %d, want %d", io.SlabWrites, want)
	}
}

// TestCloseRemovesFiles: Close removes both of the grid's local array
// files from the disk it was made on.
func TestCloseRemovesFiles(t *testing.T) {
	fs := iosim.NewMemFS()
	_, err := mp.Run(sim.Delta(2), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
		g, err := New(proc, disk, "g", 16, oocarray.Options{})
		if err != nil {
			return err
		}
		if err := g.Fill(initGrid(16)); err != nil {
			return err
		}
		if err := g.Sweep(4, 40, Jacobi); err != nil {
			return err
		}
		return g.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if names := fs.Names(); len(names) != 0 {
		t.Errorf("files left after Close: %v", names)
	}
}

// Package gaxpy implements the paper's running example — out-of-core
// GAXPY matrix multiplication C = A*B — in the three forms the paper
// compares:
//
//   - InCore: the distributed in-core program of Figures 4/5, which only
//     reads each array from disk once at the start.
//   - ColumnSlab: the straightforward out-of-core extension of the
//     in-core translation (Figure 9), which re-streams the whole local
//     array of A for every global column of C.
//   - RowSlab: the access-reorganized translation (Figure 12), which
//     streams A exactly once in row slabs.
//
// A is distributed column-block, B row-block and C column-block over P
// processors, exactly as the HPF directives of Figure 3 prescribe.
//
// The input matrices are integer-valued rank-one-like patterns whose
// product has a closed form, so results can be verified exactly (integer
// arithmetic in float64 is exact at these magnitudes regardless of the
// reduction order).
package gaxpy

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// FillA is the deterministic value of A(i, j) (0-based global indices).
func FillA(i, j int) float64 { return float64((i%7 + 1) * (j%5 + 1)) }

// FillB is the deterministic value of B(i, j).
func FillB(i, j int) float64 { return float64((i%5 + 1) * (j%3 + 1)) }

// CExpected returns the closed form of (A*B)(i, j) for N x N inputs:
// sum_k A(i,k)*B(k,j) = (i%7+1)*(j%3+1) * sum_k (k%5+1)^2.
func CExpected(n int) func(i, j int) float64 {
	var s float64
	for k := 0; k < n; k++ {
		v := float64(k%5 + 1)
		s += v * v
	}
	return func(i, j int) float64 {
		return float64(i%7+1) * float64(j%3+1) * s
	}
}

// Config describes one GAXPY run.
type Config struct {
	// N is the global matrix extent (N x N); it must be divisible by the
	// machine's processor count.
	N int
	// SlabA, SlabB and SlabC are the ICLA sizes in elements for the
	// three arrays. SlabC defaults to SlabA when zero.
	SlabA, SlabB, SlabC int
	// Opts configures the runtime (data sieving, prefetching).
	Opts oocarray.Options
	// Phantom runs in accounting-only mode: all I/O and communication
	// happen with the exact counts and simulated costs of a real run,
	// but file data movement and floating point arithmetic are skipped.
	// Used for paper-scale parameter sweeps; cannot be verified.
	Phantom bool
	// FS is the backing store for the local array files; nil means a
	// fresh in-memory file system.
	FS iosim.FS
	// Trace, when non-nil, records a typed span timeline of the run
	// against the simulated clocks (see trace.Tracer).
	Trace *trace.Tracer
}

// ArrayIO breaks one processor's I/O statistics down by array, so the
// measured counts can be checked against the per-array closed forms of
// Equations 3-6.
type ArrayIO struct {
	A, B, C trace.IOStats
}

// Run is the outcome of one GAXPY execution.
type Run struct {
	Stats   *trace.Stats
	Variant string
	// PerArray holds per-processor, per-array I/O statistics (indexed by
	// rank).
	PerArray []ArrayIO

	n       int
	p       int
	phantom bool
	fs      iosim.FS
	mach    sim.Config
}

// MaxArrayIO returns, per array, the element-wise maximum I/O statistics
// across processors — the paper's "per processor" metrics on a balanced
// program.
func (r *Run) MaxArrayIO() ArrayIO {
	merge := func(get func(ArrayIO) trace.IOStats) trace.IOStats {
		s := trace.NewStats(len(r.PerArray))
		for i, pa := range r.PerArray {
			s.Procs[i].IO = get(pa)
		}
		return s.MaxIO()
	}
	return ArrayIO{
		A: merge(func(pa ArrayIO) trace.IOStats { return pa.A }),
		B: merge(func(pa ArrayIO) trace.IOStats { return pa.B }),
		C: merge(func(pa ArrayIO) trace.IOStats { return pa.C }),
	}
}

// arrays bundles the per-processor out-of-core arrays.
type arrays struct {
	a, b, c *oocarray.Array
}

// tags for the collectives of the node programs.
const (
	tagColumnSum = 1
	tagSubcolSum = 2
)

// maps holds the mappings of Figure 3's arrays — a(n,n) column-block,
// b(n,n) row-block, c(n,n) column-block — built once per run and shared
// by all ranks, so each mapping's index tables are built once too.
type maps struct{ a, b, c *dist.Array }

// newMaps validates the configuration against the processor count and
// builds the mappings.
func newMaps(c Config, procs int) (*maps, error) {
	if c.N <= 0 || c.N%procs != 0 {
		return nil, fmt.Errorf("gaxpy: N=%d must be a positive multiple of P=%d", c.N, procs)
	}
	if c.SlabA <= 0 || c.SlabB <= 0 {
		return nil, fmt.Errorf("gaxpy: slab sizes must be positive (A=%d, B=%d)", c.SlabA, c.SlabB)
	}
	var m maps
	var err error
	if m.a, err = dist.NewArray("a", dist.NewCollapsed(c.N), dist.NewBlock(c.N, procs)); err != nil {
		return nil, err
	}
	if m.b, err = dist.NewArray("b", dist.NewBlock(c.N, procs), dist.NewCollapsed(c.N)); err != nil {
		return nil, err
	}
	if m.c, err = dist.NewArray("c", dist.NewCollapsed(c.N), dist.NewBlock(c.N, procs)); err != nil {
		return nil, err
	}
	return &m, nil
}

// setup builds the distributed arrays of Figure 3 on one processor. Each
// array gets its own disk view so I/O statistics can be attributed per
// array.
func setup(p *mp.Proc, c Config, fs iosim.FS, perArray *ArrayIO, m *maps) (*arrays, error) {
	newDisk := func(stats *trace.IOStats, label string) *iosim.Disk {
		d := iosim.NewDisk(fs, p.Config(), stats)
		d.SetPhantom(c.Phantom)
		d.SetTracer(p.Tracer(), p.Clock(), label)
		return d
	}
	a, err := oocarray.New(newDisk(&perArray.A, "a"), m.a, p.Rank(), p.Clock(), c.Opts)
	if err != nil {
		return nil, err
	}
	b, err := oocarray.New(newDisk(&perArray.B, "b"), m.b, p.Rank(), p.Clock(), c.Opts)
	if err != nil {
		return nil, err
	}
	cc, err := oocarray.New(newDisk(&perArray.C, "c"), m.c, p.Rank(), p.Clock(), c.Opts)
	if err != nil {
		return nil, err
	}
	if !c.Phantom {
		if err := a.FillGlobal(FillA); err != nil {
			return nil, err
		}
		if err := b.FillGlobal(FillB); err != nil {
			return nil, err
		}
	}
	return &arrays{a: a, b: b, c: cc}, nil
}

// run executes the node function on the machine and wraps the result.
func run(mach sim.Config, c Config, variant string, node func(p *mp.Proc, ar *arrays, cfg Config) error) (*Run, error) {
	fs := c.FS
	if fs == nil {
		fs = iosim.NewMemFS()
	}
	if c.SlabC == 0 {
		c.SlabC = c.SlabA
	}
	m, err := newMaps(c, mach.Procs)
	if err != nil {
		return nil, fmt.Errorf("gaxpy %s: %w", variant, err)
	}
	perArray := make([]ArrayIO, mach.Procs)
	stats, err := mp.Run(mach, func(p *mp.Proc) error {
		p.SetTracer(c.Trace.Rank(p.Rank()))
		ar, err := setup(p, c, fs, &perArray[p.Rank()], m)
		if err != nil {
			return err
		}
		defer ar.a.Close()
		defer ar.b.Close()
		defer ar.c.Close()
		if err := node(p, ar, c); err != nil {
			return err
		}
		// Fold the per-array statistics into the processor total.
		io := &p.Stats().IO
		io.Add(perArray[p.Rank()].A)
		io.Add(perArray[p.Rank()].B)
		io.Add(perArray[p.Rank()].C)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("gaxpy %s: %w", variant, err)
	}
	return &Run{Stats: stats, Variant: variant, PerArray: perArray, n: c.N, p: mach.Procs, phantom: c.Phantom, fs: fs, mach: mach}, nil
}

// VerifyC reads the result array back from the local array files and
// checks it against the closed form. It fails on phantom runs, which have
// no data to verify.
func (r *Run) VerifyC() error {
	if r.phantom {
		return fmt.Errorf("gaxpy: cannot verify a phantom run")
	}
	want := CExpected(r.n)
	mapC, err := dist.NewArray("c", dist.NewCollapsed(r.n), dist.NewBlock(r.n, r.p))
	if err != nil {
		return err
	}
	for proc := 0; proc < r.p; proc++ {
		disk := iosim.NewDisk(r.fs, r.mach, nil)
		laf, err := disk.OpenLAF(fmt.Sprintf("c.p%d.laf", proc), int64(mapC.LocalElems(proc)))
		if err != nil {
			return err
		}
		data, _, err := laf.ReadAll()
		laf.Close()
		if err != nil {
			return err
		}
		shape := mapC.LocalShape(proc)
		rows, cols := shape[0], shape[1]
		for lj := 0; lj < cols; lj++ {
			gj := mapC.Dims[1].ToGlobal(proc, lj)
			for li := 0; li < rows; li++ {
				got := data[lj*rows+li]
				if w := want(li, gj); got != w {
					return fmt.Errorf("gaxpy %s: C(%d,%d) = %g, want %g", r.Variant, li, gj, got, w)
				}
			}
		}
	}
	return nil
}

// GatherC assembles the global result matrix (verification/demo helper).
func (r *Run) GatherC() (*matrix.Matrix, error) {
	if r.phantom {
		return nil, fmt.Errorf("gaxpy: cannot gather a phantom run")
	}
	out := matrix.New(r.n, r.n)
	mapC, err := dist.NewArray("c", dist.NewCollapsed(r.n), dist.NewBlock(r.n, r.p))
	if err != nil {
		return nil, err
	}
	for proc := 0; proc < r.p; proc++ {
		disk := iosim.NewDisk(r.fs, r.mach, nil)
		laf, err := disk.OpenLAF(fmt.Sprintf("c.p%d.laf", proc), int64(mapC.LocalElems(proc)))
		if err != nil {
			return nil, err
		}
		data, _, err := laf.ReadAll()
		laf.Close()
		if err != nil {
			return nil, err
		}
		shape := mapC.LocalShape(proc)
		rows, cols := shape[0], shape[1]
		for lj := 0; lj < cols; lj++ {
			gj := mapC.Dims[1].ToGlobal(proc, lj)
			copy(out.Col(gj), data[lj*rows:(lj+1)*rows])
		}
	}
	return out, nil
}

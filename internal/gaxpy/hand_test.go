package gaxpy

// The hand-written node programs of the paper's Figures 5, 9 and 12 — the
// oracle the compiled plans are checked against (oracle_test.go). They
// run straight on the runtime layers (mp, oocarray, iosim) without the
// compiler, the plan IR or the engine.

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

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

// RunInCore executes the distributed in-core GAXPY program of Figure 5:
// each array is read from disk once up front, the whole computation runs
// from memory, and C is written back once.
func RunInCore(mach sim.Config, cfg Config) (*Run, error) {
	return run(mach, cfg, "in-core", inCoreNode)
}

// RunColumnSlab executes the column-slab out-of-core translation of
// Figure 9 — the straightforward extension of in-core compilation, which
// re-streams the entire local array of A for every global column of C.
func RunColumnSlab(mach sim.Config, cfg Config) (*Run, error) {
	return run(mach, cfg, "column-slab", columnSlabNode)
}

// RunRowSlab executes the reorganized row-slab translation of Figure 12:
// A is streamed exactly once in row slabs and the global sums produce
// subcolumns of C.
func RunRowSlab(mach sim.Config, cfg Config) (*Run, error) {
	return run(mach, cfg, "row-slab", rowSlabNode)
}

// Variants maps variant names to runners, for the benchmark drivers.
var Variants = map[string]func(sim.Config, Config) (*Run, error){
	"in-core":     RunInCore,
	"column-slab": RunColumnSlab,
	"row-slab":    RunRowSlab,
}

// axpyCols adds a's columns, each times its element of b's column m from
// row row0 down, into temp — temp += Σ_i a(:,i)·b(row0+i, m), the
// innermost loop of all three variants — through the kernel the compiled
// engine runs, so the two stay like for like on the host clock too. A
// phantom run only charges the flops.
func axpyCols(p *mp.Proc, temp []float64, a, b *oocarray.ICLA, row0, m int, phantom bool) {
	oocarray.AxpyLoop(p, temp, a.Cols, phantom, a.Data, a.Rows, b.Data[m*b.Rows+row0:], 1)
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// cOwnerStore delivers a reduced (sub)column of C into the owner's staging
// slab. Every processor participates in the reduction for global column
// gj; the owner copies the result into column gj's local position. In
// phantom mode the reduction carries the column's length and nothing is
// copied: nobody reads the sum.
func cOwnerStore(p *mp.Proc, ar *arrays, gj, tag int, temp []float64, staging *oocarray.ICLA, phantom bool) error {
	owner := ar.c.Dist().Dims[1].Owner(gj)
	var sum []float64
	if phantom {
		p.ReduceElided(owner, tag, len(temp))
	} else {
		sum = p.Reduce(owner, tag, temp)
	}
	if p.Rank() != owner {
		return nil
	}
	_, local := ar.c.Dist().Dims[1].ToLocal(gj)
	lj := local - staging.ColOff
	if lj < 0 || lj >= staging.Cols {
		return fmt.Errorf("gaxpy: column %d outside staging slab [%d,+%d)", gj, staging.ColOff, staging.Cols)
	}
	if !phantom {
		copy(staging.Col(lj), sum)
		mp.ReleaseBuf(sum)
	}
	return nil
}

// ---------------------------------------------------------------------------
// In-core (Figure 5)

func inCoreNode(p *mp.Proc, ar *arrays, cfg Config) error {
	n := cfg.N
	// Initial read: the whole local arrays in one transfer each.
	aAll, err := ar.a.ReadSection(0, 0, ar.a.LocalRows(), ar.a.LocalCols())
	if err != nil {
		return err
	}
	bAll, err := ar.b.ReadSection(0, 0, ar.b.LocalRows(), ar.b.LocalCols())
	if err != nil {
		return err
	}
	cAll := &oocarray.ICLA{Rows: ar.c.LocalRows(), Cols: ar.c.LocalCols(),
		Data: make([]float64, ar.c.LocalElems())}

	temp := make([]float64, n)
	for gj := 0; gj < n; gj++ {
		if !cfg.Phantom {
			zero(temp)
		}
		// Partial sum over this processor's block of k (Equation 2):
		// local column i of A pairs with local row i of B.
		axpyCols(p, temp, aAll, bAll, 0, gj, cfg.Phantom)
		if err := cOwnerStore(p, ar, gj, tagColumnSum, temp, cAll, cfg.Phantom); err != nil {
			return err
		}
	}
	// Write the result once.
	return ar.c.WriteSection(cAll)
}

// ---------------------------------------------------------------------------
// Column-slab out-of-core (Figure 9)

func columnSlabNode(p *mp.Proc, ar *arrays, cfg Config) error {
	n := cfg.N
	slabsB := ar.b.Slabbing(oocarray.ByColumn, cfg.SlabB)
	slabsA := ar.a.Slabbing(oocarray.ByColumn, cfg.SlabA)
	slabsC := ar.c.Slabbing(oocarray.ByColumn, cfg.SlabC)

	myRank := p.Rank()
	var staging *oocarray.ICLA
	stagingIdx := -1
	// ensureStaging positions the C output slab that holds local column
	// lj, flushing the previous one.
	ensureStaging := func(lj int) error {
		idx := lj / slabsC.Width
		if idx == stagingIdx {
			return nil
		}
		if staging != nil {
			if err := ar.c.WriteSection(staging); err != nil {
				return err
			}
			ar.c.Recycle(staging)
		}
		var err error
		staging, err = ar.c.NewSlab(slabsC, idx)
		if err != nil {
			return err
		}
		stagingIdx = idx
		return nil
	}

	temp := make([]float64, n)
	gj := 0
	for l := 0; l < slabsB.Count; l++ {
		bSlab, err := ar.b.ReadSlab(slabsB, l)
		if err != nil {
			return err
		}
		for m := 0; m < bSlab.Cols; m++ {
			if !cfg.Phantom {
				zero(temp)
			}
			// Re-stream the whole local array of A for this column.
			columnCount := 0
			for na := 0; na < slabsA.Count; na++ {
				aSlab, err := ar.a.ReadSlab(slabsA, na)
				if err != nil {
					return err
				}
				axpyCols(p, temp, aSlab, bSlab, columnCount, m, cfg.Phantom)
				columnCount += aSlab.Cols
				ar.a.Recycle(aSlab)
			}
			// The owner of column gj must have its staging slab in
			// place before the reduction delivers the column.
			if ar.c.Dist().Dims[1].Owner(gj) == myRank {
				_, local := ar.c.Dist().Dims[1].ToLocal(gj)
				if err := ensureStaging(local); err != nil {
					return err
				}
			}
			if err := cOwnerStore(p, ar, gj, tagColumnSum, temp, staging, cfg.Phantom); err != nil {
				return err
			}
			gj++
		}
		ar.b.Recycle(bSlab)
	}
	if staging != nil {
		if err := ar.c.WriteSection(staging); err != nil {
			return err
		}
		ar.c.Recycle(staging)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Row-slab out-of-core (Figure 12)

func rowSlabNode(p *mp.Proc, ar *arrays, cfg Config) error {
	slabsA := ar.a.Slabbing(oocarray.ByRow, cfg.SlabA)
	slabsB := ar.b.Slabbing(oocarray.ByColumn, cfg.SlabB)
	readerA := ar.a.NewSlabReader(slabsA)
	var writerC *oocarray.SlabWriter
	if cfg.Opts.WriteBehind {
		writerC = ar.c.NewSlabWriter()
		defer writerC.Flush()
	}

	for l := 0; l < slabsA.Count; l++ {
		aSlab, ok, err := readerA.Next()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("gaxpy: A slab reader exhausted at %d of %d", l, slabsA.Count)
		}
		// The C subcolumns produced from this row slab cover the same
		// rows for all of this processor's columns.
		staging := &oocarray.ICLA{
			RowOff: aSlab.RowOff, ColOff: 0,
			Rows: aSlab.Rows, Cols: ar.c.LocalCols(),
			Data: bufpool.GetF64(aSlab.Rows * ar.c.LocalCols()),
		}
		clear(staging.Data)
		temp := bufpool.GetF64(aSlab.Rows)
		clear(temp)
		gj := 0
		// B is re-streamed once per row slab of A.
		for nb := 0; nb < slabsB.Count; nb++ {
			bSlab, err := ar.b.ReadSlab(slabsB, nb)
			if err != nil {
				return err
			}
			for m := 0; m < bSlab.Cols; m++ {
				if !cfg.Phantom {
					zero(temp)
				}
				axpyCols(p, temp, aSlab, bSlab, 0, m, cfg.Phantom)
				if err := cOwnerStore(p, ar, gj, tagSubcolSum, temp, staging, cfg.Phantom); err != nil {
					return err
				}
				gj++
			}
			ar.b.Recycle(bSlab)
		}
		bufpool.PutF64(temp)
		// Write-behind moves the data synchronously (only the simulated
		// completion is deferred), so the staging buffer can be recycled
		// as soon as Write returns.
		if writerC != nil {
			if err := writerC.Write(staging); err != nil {
				return err
			}
		} else if err := ar.c.WriteSection(staging); err != nil {
			return err
		}
		ar.c.Recycle(staging)
		ar.a.Recycle(aSlab)
	}
	return nil
}

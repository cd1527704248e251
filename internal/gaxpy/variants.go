package gaxpy

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

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

// Package lu implements out-of-core LU factorization (without pivoting)
// on the simulated distributed memory machine — one of the application
// classes the PASSION project targeted beyond the paper's GAXPY example.
//
// The matrix is distributed column-block over P processors, and each
// processor's local columns live in a local array file. The algorithm is
// left-looking over column panels: to factor panel K, every previously
// factored panel J < K is re-read from its owner's disk and broadcast,
// so the I/O traffic is quadratic in the panel count — exactly the
// reuse-driven access pattern the paper's cost framework reasons about
// (each panel is fetched once per later panel, like array A in the
// column-slab GAXPY).
package lu

import (
	"fmt"
	"math"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

const tagPanel = 41

// Config describes one factorization.
type Config struct {
	// N is the matrix extent.
	N int
	// PanelWidth is the number of columns per panel (the slab width).
	// It must divide N/P so panels never straddle processors.
	PanelWidth int
	// FS backs the local array files; nil means a fresh in-memory file
	// system.
	FS iosim.FS
	// Trace, when non-nil, records a typed span timeline of the run
	// against the simulated clocks (see trace.Tracer).
	Trace *trace.Tracer
}

// Result is a completed factorization.
type Result struct {
	Stats *trace.Stats
	cfg   Config
	procs int
	fs    iosim.FS
	mach  sim.Config
}

// FillA is the default input: a diagonally dominant matrix that is stable
// to factor without pivoting.
func FillA(n int) func(i, j int) float64 {
	return func(i, j int) float64 {
		if i == j {
			return float64(n + 2)
		}
		d := i - j
		if d < 0 {
			d = -d
		}
		return 1 / float64(1+d)
	}
}

// Run factors the FillA(N) matrix out of core and leaves the packed LU
// factors (unit lower L below the diagonal, U on and above it) in the
// "lu" local array files.
func Run(mach sim.Config, cfg Config) (*Result, error) {
	n, w, p := cfg.N, cfg.PanelWidth, mach.Procs
	if n <= 0 || w <= 0 {
		return nil, fmt.Errorf("lu: N and PanelWidth must be positive (N=%d, w=%d)", n, w)
	}
	if n%p != 0 {
		return nil, fmt.Errorf("lu: N=%d must be a multiple of the processor count %d", n, p)
	}
	if (n/p)%w != 0 {
		return nil, fmt.Errorf("lu: panel width %d must divide the local column count %d", w, n/p)
	}
	fs := cfg.FS
	if fs == nil {
		fs = iosim.NewMemFS()
	}
	fill := FillA(n)
	panels := n / w

	stats, err := mp.Run(mach, func(proc *mp.Proc) error {
		proc.SetTracer(cfg.Trace.Rank(proc.Rank()))
		disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
		disk.SetTracer(proc.Tracer(), proc.Clock(), "lu")
		dm, err := dist.NewArray("lu", dist.NewCollapsed(n), dist.NewBlock(n, p))
		if err != nil {
			return err
		}
		arr, err := oocarray.New(disk, dm, proc.Rank(), proc.Clock(), oocarray.Options{})
		if err != nil {
			return err
		}
		defer arr.Close()
		if err := arr.FillGlobal(fill); err != nil {
			return err
		}

		colMap := dm.Dims[1]
		panelOwner := func(k int) int { return colMap.Owner(k * w) }
		// localStart returns the local column index of panel k on its
		// owner.
		localStart := func(k int) int {
			_, local := colMap.ToLocal(k * w)
			return local
		}

		for k := 0; k < panels; k++ {
			ko := panelOwner(k)
			mine := proc.Rank() == ko
			var pk *oocarray.ICLA
			if mine {
				pk, err = arr.ReadSection(0, localStart(k), n, w)
				if err != nil {
					return err
				}
			}
			// Stream every previously factored panel through the
			// current one.
			for j := 0; j < k; j++ {
				jo := panelOwner(j)
				var payload []float64
				var pj *oocarray.ICLA
				if proc.Rank() == jo {
					pj, err = arr.ReadSection(0, localStart(j), n, w)
					if err != nil {
						return err
					}
					payload = pj.Data
				}
				payload = proc.Bcast(jo, tagPanel, payload)
				if mine {
					applyPanel(proc, pk, payload, j*w, w, n)
				}
				// On the owner, Bcast returns its input — the panel's own
				// storage, recycled with the slab; elsewhere the payload is
				// a receiver-owned arena buffer.
				if pj != nil {
					arr.Recycle(pj)
				} else {
					proc.Cache().PutF64(payload)
				}
			}
			if mine {
				factorPanel(proc, pk, k*w, w, n)
				if err := arr.WriteSection(pk); err != nil {
					return err
				}
				arr.Recycle(pk)
			}
		}
		return nil
	})
	if err != nil {
		removeFiles(fs, p)
		return nil, fmt.Errorf("lu: %w", err)
	}
	return &Result{Stats: stats, cfg: cfg, procs: p, fs: fs, mach: mach}, nil
}

// Close removes the local array files holding the factors. Verify reads
// them, so call it after.
func (r *Result) Close() error {
	removeFiles(r.fs, r.procs)
	return nil
}

// removeFiles deletes every processor's "lu" local array file, ignoring
// missing ones (error-path and Close cleanup).
func removeFiles(fs iosim.FS, procs int) {
	for proc := 0; proc < procs; proc++ {
		fs.Remove(oocarray.FileName("lu", proc))
	}
}

// applyPanel applies the factored panel starting at global column g0 to
// the working panel pk (whose columns are later than g0+w).
func applyPanel(proc *mp.Proc, pk *oocarray.ICLA, panel []float64, g0, w, n int) {
	var flops int64
	for q := 0; q < w; q++ {
		g := g0 + q
		lcol := panel[q*n : (q+1)*n] // column g: L below the diagonal
		for c := 0; c < pk.Cols; c++ {
			x := pk.Col(c)
			xg := x[g]
			if xg == 0 {
				continue
			}
			for i := g + 1; i < n; i++ {
				x[i] -= lcol[i] * xg
			}
			flops += 2 * int64(n-g-1)
		}
	}
	proc.Compute(flops)
}

// factorPanel factors the panel whose first global column is g0, applying
// the intra-panel updates and scaling each column's subdiagonal by its
// pivot.
func factorPanel(proc *mp.Proc, pk *oocarray.ICLA, g0, w, n int) {
	var flops int64
	for idx := 0; idx < w; idx++ {
		c := g0 + idx
		x := pk.Col(idx)
		// Updates from the earlier columns of this panel.
		for q := 0; q < idx; q++ {
			g := g0 + q
			lcol := pk.Col(q)
			xg := x[g]
			if xg != 0 {
				for i := g + 1; i < n; i++ {
					x[i] -= lcol[i] * xg
				}
				flops += 2 * int64(n-g-1)
			}
		}
		pivot := x[c]
		for i := c + 1; i < n; i++ {
			x[i] /= pivot
		}
		flops += int64(n - c - 1)
	}
	proc.Compute(flops)
}

// Verify reconstructs L*U from the packed factors and compares it against
// the original matrix, returning the maximum absolute deviation.
func (r *Result) Verify() (float64, error) {
	lu, err := r.readLU()
	if err != nil {
		return 0, err
	}
	n := r.cfg.N
	fill := FillA(n)
	maxDiff := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			// (L*U)(i,j) = sum_k L(i,k)*U(k,j), L unit lower, U upper.
			kmax := i
			if j < i {
				kmax = j
			}
			s := 0.0
			for k := 0; k <= kmax; k++ {
				var l float64
				switch {
				case k == i:
					l = 1
				case k < i:
					l = lu.At(i, k)
				}
				s += l * lu.At(k, j)
			}
			if d := math.Abs(s - fill(i, j)); d > maxDiff {
				maxDiff = d
			}
		}
	}
	return maxDiff, nil
}

// readLU assembles the packed factors from the local array files.
func (r *Result) readLU() (*matrix.Matrix, error) {
	n := r.cfg.N
	dm, err := dist.NewArray("lu", dist.NewCollapsed(n), dist.NewBlock(n, r.procs))
	if err != nil {
		return nil, err
	}
	out := matrix.New(n, n)
	for proc := 0; proc < r.procs; proc++ {
		disk := iosim.NewDisk(r.fs, r.mach, nil)
		laf, err := disk.OpenLAF(oocarray.FileName("lu", proc), int64(dm.LocalElems(proc)))
		if err != nil {
			return nil, err
		}
		data, _, err := laf.ReadAll()
		laf.Close()
		if err != nil {
			return nil, err
		}
		shape := dm.LocalShape(proc)
		rows, cols := shape[0], shape[1]
		for lj := 0; lj < cols; lj++ {
			gj := dm.Dims[1].ToGlobal(proc, lj)
			copy(out.Col(gj), data[lj*rows:(lj+1)*rows])
		}
	}
	return out, nil
}

package experiments

import (
	"fmt"
	"strings"

	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Params configures an experiment sweep.
type Params struct {
	// N is the global matrix extent; 0 means the paper's value for that
	// experiment (1024 for Table 1 / Figure 10, 2048 for Table 2).
	N int
	// Procs are the processor counts; nil means {4, 16, 32, 64}.
	Procs []int
	// Ratios are slab-ratio denominators (8 means ratio 1/8); nil means
	// {8, 4, 2, 1}.
	Ratios []int
	// Real executes with real data movement and arithmetic instead of
	// accounting-only mode (slow at paper scale, identical statistics).
	Real bool
	// Machine builds the machine model per processor count; nil means
	// sim.Delta.
	Machine func(p int) sim.Config
	// Opts is the runtime switches (sieving, prefetching, write-behind)
	// the experiments compile their plans with.
	Opts oocarray.Options
}

func (p Params) withDefaults(defaultN int) Params {
	if p.N == 0 {
		p.N = defaultN
	}
	if p.Procs == nil {
		p.Procs = append([]int(nil), paperProcs...)
	}
	if p.Ratios == nil {
		p.Ratios = append([]int(nil), paperRatios...)
	}
	if p.Machine == nil {
		p.Machine = sim.Delta
	}
	return p
}

// runGaxpy runs Figure 3 compiled for p.N and procs processors, forced to
// strategy, with the slabs of A, B and C fixed at slabA, slabB and slabC
// elements (gaxpy.Plan). A real run fills A and B and checks C against the
// closed form. The run's files are removed before it returns; its
// statistics remain, with A's per-processor maximum I/O taken from the
// per-array statistics the closed result gives up.
func runGaxpy(p Params, procs int, strategy string, slabA, slabB, slabC int) (*trace.Stats, trace.IOStats, error) {
	prg, err := gaxpy.Plan(p.N, procs, strategy, slabA, slabB, slabC, p.Opts)
	if err != nil {
		return nil, trace.IOStats{}, err
	}
	opts := exec.Options{Phantom: !p.Real}
	if p.Real {
		opts.Fill = map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}
	}
	out, err := exec.Run(prg, p.Machine(procs), opts)
	if err != nil {
		return nil, trace.IOStats{}, err
	}
	defer out.Close()
	if p.Real {
		c, err := out.ReadArray("c")
		if err != nil {
			return nil, trace.IOStats{}, err
		}
		want := gaxpy.CExpected(p.N)
		for j := 0; j < p.N; j++ {
			for i := 0; i < p.N; i++ {
				if got := c.At(i, j); got != want(i, j) {
					return nil, trace.IOStats{}, fmt.Errorf("experiments: %s P=%d: C(%d,%d) = %g, want %g", strategy, procs, i, j, got, want(i, j))
				}
			}
		}
	}
	return out.Stats, out.MaxArrayIO("a"), nil
}

// gaxpySeconds is runGaxpy's simulated elapsed time.
func gaxpySeconds(p Params, procs int, strategy string, slabA, slabB, slabC int) (float64, error) {
	stats, _, err := runGaxpy(p, procs, strategy, slabA, slabB, slabC)
	if err != nil {
		return 0, err
	}
	return stats.ElapsedSeconds(), nil
}

// slabForRatio returns the slab size in elements for a 1/denominator
// ratio of the out-of-core local array.
func slabForRatio(n, p, denom int) int {
	ocla := n * n / p
	s := ocla / denom
	if s < n {
		s = n // never below one column
	}
	return s
}

// ---------------------------------------------------------------------------
// Table 1 / Figure 10

// Table1Result holds the reproduction of Table 1 (and its column-slab
// subset, Figure 10).
type Table1Result struct {
	N      int
	Procs  []int
	Ratios []int
	// Col, Row are seconds indexed [ratioIdx][procIdx]; InCore by
	// procIdx.
	Col, Row [][]float64
	InCore   []float64
}

// Table1 regenerates Table 1: column-slab and row-slab times across
// processor counts and slab ratios, plus the in-core reference.
func Table1(p Params) (*Table1Result, error) {
	p = p.withDefaults(1024)
	res := &Table1Result{N: p.N, Procs: p.Procs, Ratios: p.Ratios}
	for _, denom := range p.Ratios {
		colRow := make([]float64, len(p.Procs))
		rowRow := make([]float64, len(p.Procs))
		for pi, procs := range p.Procs {
			slab := slabForRatio(p.N, procs, denom)
			var err error
			if colRow[pi], err = gaxpySeconds(p, procs, "column-slab", slab, slab, slab); err != nil {
				return nil, err
			}
			if rowRow[pi], err = gaxpySeconds(p, procs, "row-slab", slab, slab, slab); err != nil {
				return nil, err
			}
		}
		res.Col = append(res.Col, colRow)
		res.Row = append(res.Row, rowRow)
	}
	// The in-core translation of Figure 5 is row-slab with every slab the
	// whole local array: each array is read from disk once.
	res.InCore = make([]float64, len(p.Procs))
	for pi, procs := range p.Procs {
		ocla := p.N * p.N / procs
		var err error
		if res.InCore[pi], err = gaxpySeconds(p, procs, "row-slab", ocla, ocla, ocla); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// atPaperScale reports whether the run matches the paper's configuration,
// enabling the side-by-side paper columns.
func (r *Table1Result) atPaperScale() bool {
	return r.N == 1024 && equalInts(r.Procs, paperProcs) && equalInts(r.Ratios, paperRatios)
}

// Format renders the reproduction, with the paper's numbers alongside
// when the sweep matches the paper's configuration.
func (r *Table1Result) Format() string {
	var b strings.Builder
	paper := r.atPaperScale()
	fmt.Fprintf(&b, "Table 1: %dx%d GAXPY matrix multiplication, time in simulated seconds\n", r.N, r.N)
	if paper {
		b.WriteString("(reproduction / paper)\n")
	}
	fmt.Fprintf(&b, "%-10s", "SlabRatio")
	for _, p := range r.Procs {
		fmt.Fprintf(&b, " %14s %14s", fmt.Sprintf("col P=%d", p), fmt.Sprintf("row P=%d", p))
	}
	b.WriteString("\n")
	cell := func(mine float64, ref float64) string {
		if paper {
			return fmt.Sprintf("%7.1f/%6.1f", mine, ref)
		}
		return fmt.Sprintf("%14.2f", mine)
	}
	for ri, denom := range r.Ratios {
		fmt.Fprintf(&b, "%-10s", ratioLabel(denom))
		for pi := range r.Procs {
			var pc, pr float64
			if paper {
				pc, pr = paperTable1Col[ri][pi], paperTable1Row[ri][pi]
			}
			fmt.Fprintf(&b, " %s %s", cell(r.Col[ri][pi], pc), cell(r.Row[ri][pi], pr))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-10s", "in-core")
	for pi := range r.Procs {
		var ref float64
		if paper {
			ref = paperTable1InCore[pi]
		}
		fmt.Fprintf(&b, " %s %14s", cell(r.InCore[pi], ref), "")
	}
	b.WriteString("\n")
	return b.String()
}

// CSV renders the result for plotting.
func (r *Table1Result) CSV() string {
	var b strings.Builder
	b.WriteString("variant,slab_ratio,procs,seconds\n")
	for ri, denom := range r.Ratios {
		for pi, p := range r.Procs {
			fmt.Fprintf(&b, "column-slab,%s,%d,%.3f\n", ratioLabel(denom), p, r.Col[ri][pi])
			fmt.Fprintf(&b, "row-slab,%s,%d,%.3f\n", ratioLabel(denom), p, r.Row[ri][pi])
		}
	}
	for pi, p := range r.Procs {
		fmt.Fprintf(&b, "in-core,,%d,%.3f\n", p, r.InCore[pi])
	}
	return b.String()
}

// Fig10Result is Figure 10: the column-slab sweep alone.
type Fig10Result struct {
	Table *Table1Result
}

// Fig10 regenerates Figure 10 (effect of slab size variation on the
// column-slab version).
func Fig10(p Params) (*Fig10Result, error) {
	t, err := Table1(p)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Table: t}, nil
}

// Format renders the figure's series: one line per slab ratio, one column
// per processor count.
func (f *Fig10Result) Format() string {
	r := f.Table
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: column-slab time vs processors, %dx%d arrays (simulated seconds)\n", r.N, r.N)
	fmt.Fprintf(&b, "%-12s", "SlabRatio")
	for _, p := range r.Procs {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("P=%d", p))
	}
	b.WriteString("\n")
	for ri, denom := range r.Ratios {
		fmt.Fprintf(&b, "%-12s", ratioLabel(denom))
		for pi := range r.Procs {
			fmt.Fprintf(&b, " %10.1f", r.Col[ri][pi])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func ratioLabel(denom int) string {
	if denom == 1 {
		return "1"
	}
	return fmt.Sprintf("1/%d", denom)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

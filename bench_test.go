package passion

// One benchmark per evaluation artifact of the paper. Each benchmark runs
// the corresponding experiment configuration (accounting-only mode, so
// the wall time measures the simulator itself) and reports the simulated
// execution time as the custom metric "sim_s" — the quantity the paper's
// tables report. Run everything at reduced scale with:
//
//	go test -bench=. -benchmem
//
// and at the paper's full scale with cmd/ooc-bench.

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/cost"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/lu"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// benchN is the matrix extent used by the reduced-scale benchmarks. The
// shapes of every series are scale-invariant; cmd/ooc-bench reruns them
// at the paper's 1K/2K scale.
const benchN = 256

// runGaxpy runs Figure 3 compiled and forced to strategy, with A, B and C
// slabs fixed at slabA, slabB and slabC elements, in accounting-only mode.
func runGaxpy(b *testing.B, strategy string, procs, slabA, slabB, slabC int, opts oocarray.Options) float64 {
	b.Helper()
	prg, err := gaxpy.Plan(benchN, procs, strategy, slabA, slabB, slabC)
	if err != nil {
		b.Fatal(err)
	}
	var sec float64
	for i := 0; i < b.N; i++ {
		out, err := exec.Run(prg, sim.Delta(procs), exec.Options{Phantom: true, Runtime: opts})
		if err != nil {
			b.Fatal(err)
		}
		sec = out.Stats.ElapsedSeconds()
	}
	b.ReportMetric(sec, "sim_s")
	return sec
}

// BenchmarkFig10SlabRatio regenerates Figure 10: the column-slab
// translation across slab ratios and processor counts.
func BenchmarkFig10SlabRatio(b *testing.B) {
	for _, procs := range []int{4, 16} {
		for _, denom := range []int{8, 4, 2, 1} {
			b.Run(fmt.Sprintf("p=%d/ratio=1_%d", procs, denom), func(b *testing.B) {
				slab := benchN * benchN / procs / denom
				runGaxpy(b, "column-slab", procs, slab, slab, slab, oocarray.Options{})
			})
		}
	}
}

// BenchmarkTable1RowVsColumn regenerates Table 1: all three variants on
// the same grid of configurations. In-core (Figure 5) is row-slab with
// every slab the whole local array.
func BenchmarkTable1RowVsColumn(b *testing.B) {
	for _, variant := range []string{"in-core", "column-slab", "row-slab"} {
		for _, procs := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/p=%d", variant, procs), func(b *testing.B) {
				strategy, slab := variant, benchN*benchN/procs/8
				if variant == "in-core" {
					strategy, slab = "row-slab", benchN*benchN/procs
				}
				runGaxpy(b, strategy, procs, slab, slab, slab, oocarray.Options{})
			})
		}
	}
}

// BenchmarkTable2MemoryAllocation regenerates Table 2: the row-slab
// translation under different A/B slab splits at equal total memory.
func BenchmarkTable2MemoryAllocation(b *testing.B) {
	const procs = 4
	unit := benchN / procs * benchN / 8 // an eighth of the OCLA
	for _, split := range []struct {
		name   string
		aU, bU int
	}{
		{"even", 2, 2},
		{"a-heavy", 3, 1},
		{"b-heavy", 1, 3},
	} {
		b.Run(split.name, func(b *testing.B) {
			runGaxpy(b, "row-slab", procs, split.aU*unit, split.bU*unit, unit, oocarray.Options{})
		})
	}
}

// BenchmarkEqCheckCostModel measures the analytic side of experiment E4:
// evaluating Equations 3-6 and the Figure 14 selection.
func BenchmarkEqCheckCostModel(b *testing.B) {
	mach := sim.Delta(16)
	g := cost.GaxpyParams{N: 1024, P: 16, SlabA: 65536, SlabB: 65536, SlabC: 65536}
	for i := 0; i < b.N; i++ {
		cands := cost.GaxpyCandidates(g)
		if cost.Select(cands, mach) != 1 {
			b.Fatal("selection changed")
		}
	}
}

// BenchmarkAblationPrefetch measures the prefetching design choice: the
// row-slab translation with and without overlap.
func BenchmarkAblationPrefetch(b *testing.B) {
	const procs = 4
	slab := benchN * benchN / procs / 8
	for _, pre := range []bool{false, true} {
		b.Run(fmt.Sprintf("prefetch=%v", pre), func(b *testing.B) {
			runGaxpy(b, "row-slab", procs, slab, slab, slab, oocarray.Options{Prefetch: pre})
		})
	}
}

// BenchmarkAblationSieve measures the data sieving design choice on
// row-slab transfers.
func BenchmarkAblationSieve(b *testing.B) {
	const procs = 4
	slab := benchN * benchN / procs / 8
	for _, sieve := range []bool{false, true} {
		b.Run(fmt.Sprintf("sieve=%v", sieve), func(b *testing.B) {
			runGaxpy(b, "row-slab", procs, slab, slab, slab, oocarray.Options{Sieve: sieve})
		})
	}
}

// BenchmarkCompile measures the compiler itself (both phases plus cost
// analysis) on the Figure 3 program.
func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
			N: 1024, Procs: 16, MemElems: 1 << 16, Policy: compiler.PolicySearch,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledExecution measures the whole pipeline — compile then
// interpret — at the compiler's own memory split.
func BenchmarkCompiledExecution(b *testing.B) {
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: benchN, Procs: 4, MemElems: benchN * benchN / 4 / 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	var sec float64
	for i := 0; i < b.N; i++ {
		out, err := exec.Run(res.Program, sim.Delta(4), exec.Options{Phantom: true})
		if err != nil {
			b.Fatal(err)
		}
		sec = out.Stats.ElapsedSeconds()
	}
	b.ReportMetric(sec, "sim_s")
}

// BenchmarkRealRowSlab measures a real (non-phantom) out-of-core run with
// actual file data movement and arithmetic, at a small size.
func BenchmarkRealRowSlab(b *testing.B) {
	const n, procs = 128, 4
	slab := n * n / procs / 4
	prg, err := gaxpy.Plan(n, procs, "row-slab", slab, slab, slab)
	if err != nil {
		b.Fatal(err)
	}
	fill := map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}
	want := gaxpy.CExpected(n)
	for i := 0; i < b.N; i++ {
		out, err := exec.Run(prg, sim.Delta(procs), exec.Options{Fill: fill})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			c, err := out.ReadArray("c")
			if err != nil {
				b.Fatal(err)
			}
			if got := c.At(n-1, n-1); got != want(n-1, n-1) {
				b.Fatalf("C(%d,%d) = %g, want %g", n-1, n-1, got, want(n-1, n-1))
			}
		}
		out.Close()
	}
}

// BenchmarkLUPanelWidth measures the out-of-core LU application across
// panel widths — the slab-size effect on a second workload.
func BenchmarkLUPanelWidth(b *testing.B) {
	for _, w := range []int{4, 16} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				r, err := lu.Run(sim.Delta(4), lu.Config{N: 128, PanelWidth: w})
				if err != nil {
					b.Fatal(err)
				}
				sec = r.Stats.ElapsedSeconds()
			}
			b.ReportMetric(sec, "sim_s")
		})
	}
}

// BenchmarkEwiseCompiledExecution measures the elementwise pattern
// pipeline end to end.
func BenchmarkEwiseCompiledExecution(b *testing.B) {
	res, err := compiler.CompileSource(hpf.EwiseSource, compiler.Options{
		N: benchN, Procs: 4, MemElems: benchN * 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	var sec float64
	for i := 0; i < b.N; i++ {
		out, err := exec.Run(res.Program, sim.Delta(4), exec.Options{Phantom: true})
		if err != nil {
			b.Fatal(err)
		}
		sec = out.Stats.ElapsedSeconds()
	}
	b.ReportMetric(sec, "sim_s")
}

// BenchmarkTransposeMethod measures the collective transpose pipeline per
// destination write strategy — the experiment E9 sweep's cost axis.
func BenchmarkTransposeMethod(b *testing.B) {
	const procs = 4
	for _, method := range []string{"direct", "sieved", "two-phase"} {
		b.Run(method, func(b *testing.B) {
			res, err := compiler.CompileSource(hpf.TransposeSource, compiler.Options{
				N: benchN, Procs: procs, MemElems: 16 * benchN, Force: method,
			})
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			for i := 0; i < b.N; i++ {
				out, err := exec.Run(res.Program, sim.Delta(procs), exec.Options{Phantom: true})
				if err != nil {
					b.Fatal(err)
				}
				sec = out.Stats.ElapsedSeconds()
			}
			b.ReportMetric(sec, "sim_s")
		})
	}
}

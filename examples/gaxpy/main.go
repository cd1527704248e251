// Out-of-core GAXPY matrix multiplication: the paper's running example,
// end to end. The program compiles Figure 3 into the three translations
// the paper studies — in-core, column-slab and row-slab — runs each at a
// laptop-friendly scale with real data, prints a miniature Table 1 row,
// shows the compiler making the same choice from the cost model, and
// verifies every result exactly.
package main

import (
	"fmt"
	"log"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

func main() {
	const (
		n     = 256
		procs = 4
		ratio = 8 // slab = 1/8 of the out-of-core local array
	)
	ocla := n * n / procs
	slab := ocla / ratio
	mach := sim.Delta(procs)
	fill := map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}
	want := gaxpy.CExpected(n)

	fmt.Printf("GAXPY C = A*B, %dx%d over %d processors, slab ratio 1/%d\n\n", n, n, procs, ratio)
	fmt.Printf("%-12s %12s %10s %12s %14s\n", "variant", "sim time", "slab I/O", "requests", "data moved")
	for _, v := range []struct {
		name, strategy string
		slab           int
	}{
		// In-core (Figure 5) is the row-slab translation with every slab
		// the whole local array: each array is read from disk once.
		{"in-core", "row-slab", ocla},
		{"column-slab", "column-slab", slab},
		{"row-slab", "row-slab", slab},
	} {
		prg, err := gaxpy.Plan(n, procs, v.strategy, v.slab, v.slab, v.slab, oocarray.Options{})
		if err != nil {
			log.Fatal(err)
		}
		run, err := exec.Run(prg, mach, exec.Options{Fill: fill})
		if err != nil {
			log.Fatal(err)
		}
		c, err := run.ReadArray("c")
		if err != nil {
			log.Fatal(err)
		}
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if c.At(i, j) != want(i, j) {
					log.Fatalf("%s: C(%d,%d) = %g, want %g", v.name, i, j, c.At(i, j), want(i, j))
				}
			}
		}
		run.Close()
		io := run.Stats.TotalIO()
		fmt.Printf("%-12s %11.2fs %10d %12d %14d\n",
			v.name, run.Stats.ElapsedSeconds(), io.SlabReads+io.SlabWrites, io.Requests(), io.Bytes())
	}

	// The compiler reaches the same conclusion from Equations 3-6 alone.
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: n, Procs: procs, MemElems: 2*slab + n,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompiler's cost comparison (Figure 14 algorithm):\n%s", res.Report())
	fmt.Printf("selected: %s\n", res.Program.Strategy)
	fmt.Println("\nall three variants verified against the closed form: OK")
}

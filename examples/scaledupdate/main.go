// Elementwise out-of-core update: the compiler's second pattern class.
// Two FORALL statements — z = alpha*x + y - 1 followed by w = z*x/2 —
// compile to slab-streaming node programs with no communication. Here the
// access reorganization question is contiguity, not reuse: both
// strip-mining directions move each array exactly once, but column slabs
// of the column-major local arrays cost one disk request per slab while
// row slabs cost one per local column. The example shows the cost model
// making that choice, runs both plans, and verifies the results.
package main

import (
	"fmt"
	"log"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/sim"
)

const (
	n     = 128
	procs = 4
)

func fillX(i, j int) float64 { return float64(i%9 + j%4) }
func fillY(i, j int) float64 { return float64(3*(i%5) - j%7) }

func main() {
	run := func(force string) (*exec.Result, *compiler.Result) {
		res, err := compiler.CompileSource(hpf.EwiseSource, compiler.Options{
			N: n, Procs: procs, MemElems: n * 8, Force: force,
		})
		if err != nil {
			log.Fatal(err)
		}
		out, err := exec.Run(res.Program, sim.Delta(procs), exec.Options{
			Fill: map[string]func(int, int) float64{"x": fillX, "y": fillY},
		})
		if err != nil {
			log.Fatal(err)
		}
		return out, res
	}

	auto, res := run("")
	defer auto.Close()
	fmt.Printf("compiled pattern: %s; strategy chosen: %s\n", res.Analysis.Pattern, res.Program.Strategy)
	fmt.Printf("cost comparison:\n%s\n", res.Report())

	forced, _ := run("row-slab")
	defer forced.Close()
	fmt.Printf("simulated time: %-12s %8.3fs (%d requests)\n",
		res.Program.Strategy, auto.Stats.ElapsedSeconds(), auto.Stats.TotalIO().Requests())
	fmt.Printf("simulated time: %-12s %8.3fs (%d requests)\n",
		"row-slab", forced.Stats.ElapsedSeconds(), forced.Stats.TotalIO().Requests())

	// Verify z = 3x + y - 1 and w = z*x/2 exactly.
	z, err := auto.ReadArray("z")
	if err != nil {
		log.Fatal(err)
	}
	w, err := auto.ReadArray("w")
	if err != nil {
		log.Fatal(err)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			wantZ := 3*fillX(i, j) + fillY(i, j) - 1
			if z.At(i, j) != wantZ {
				log.Fatalf("z(%d,%d) = %g, want %g", i, j, z.At(i, j), wantZ)
			}
			if want := wantZ * fillX(i, j) / 2; w.At(i, j) != want {
				log.Fatalf("w(%d,%d) = %g, want %g", i, j, w.At(i, j), want)
			}
		}
	}
	fmt.Println("both statements verified exactly: OK")
}

// Out-of-core 2-D Jacobi relaxation: a second workload class (the
// loosely synchronous stencils the paper's introduction motivates),
// compiled from HPF like every other workload.
//
// hpf.JacobiSource is a time loop around two FORALL sweeps, a into b and
// b back into a. The grids are distributed column-block; the compiler
// reads the shifted column references as a boundary-column exchange with
// the neighboring processors and the row sections as row offsets inside
// each column slab, and emits per sweep an exchange followed by a
// halo-widened slab loop, all inside one time loop that checkpoints once
// per trip. The result is verified exactly against the sequential
// in-core reference (identical arithmetic per element).
package main

import (
	"fmt"
	"log"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/stencil"
)

const (
	n     = 128
	procs = 4
	// mem holds a 16-column slab of each grid (the local blocks are 32
	// columns wide).
	mem = 2 * 16 * n
)

// initial is the starting grid: a hot top edge, a cold bottom edge, and a
// deterministic interior pattern.
func initial(i, j int) float64 {
	switch {
	case i == 0:
		return 100
	case i == n-1:
		return -50
	default:
		return float64((i*7+j*3)%11) - 5
	}
}

func main() {
	prog, err := hpf.Parse(hpf.JacobiSource)
	if err != nil {
		log.Fatal(err)
	}
	res, err := compiler.Compile(prog, compiler.Options{N: n, Procs: procs, MemElems: mem})
	if err != nil {
		log.Fatal(err)
	}
	trips := hpf.ParamEnv(prog)["iters"]
	// Both grids start as the initial one: the sweeps leave the boundary
	// of each untouched.
	out, err := exec.Run(res.Program, sim.Delta(procs), exec.Options{
		Fill: map[string]func(int, int) float64{"a": initial, "b": initial},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	// Each trip ends with the sweep into a.
	got, err := out.ReadArray("a")
	if err != nil {
		log.Fatal(err)
	}
	if ref := stencil.Reference(n, 2*trips, initial); !matrix.Equal(got, ref) {
		log.Fatalf("grid differs from the sequential reference (maxdiff %g)", matrix.MaxAbsDiff(got, ref))
	}
	fmt.Printf("jacobi: %d sweeps (%d trips of the time loop) of a %dx%d grid over %d processors, out of core\n",
		2*trips, trips, n, n, procs)
	fmt.Printf("simulated execution: %s\n", out.Stats)
	fmt.Println("verification against the sequential reference: exact match, OK")
}

package stencil_test

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/stencil"
)

// initGrid is a hot top edge, a cold bottom edge and a deterministic
// interior.
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

// TestCompiledJacobiMatchesReference runs the compiled hpf.JacobiSource
// (three trips of two sweeps) over one to eight processors, with slabs of
// one column up to the whole local array: both grids are filled with
// the initial one, and a, which the last sweep writes, must equal six
// in-core sweeps bit for bit.
func TestCompiledJacobiMatchesReference(t *testing.T) {
	const n = 32
	want := stencil.Reference(n, 6, initGrid(n))
	for _, p := range []int{1, 2, 4, 8} {
		for _, mem := range []int{2 * n, n * n / p, 2 * n * n / p} {
			t.Run(fmt.Sprintf("p=%d/mem=%d", p, mem), func(t *testing.T) {
				res, err := compiler.CompileSource(hpf.JacobiSource, compiler.Options{N: n, Procs: p, MemElems: mem})
				if err != nil {
					t.Fatal(err)
				}
				fill := initGrid(n)
				out, err := exec.Run(res.Program, sim.Delta(p), exec.Options{
					Fill: map[string]func(int, int) float64{"a": fill, "b": fill},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer out.Close()
				got, err := out.ReadArray("a")
				if err != nil {
					t.Fatal(err)
				}
				if !matrix.Equal(got, want) {
					t.Fatalf("a differs from the in-core reference (maxdiff %g)", matrix.MaxAbsDiff(got, want))
				}
			})
		}
	}
}

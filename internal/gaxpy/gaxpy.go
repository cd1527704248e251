// Package gaxpy holds the paper's running example — out-of-core GAXPY
// matrix multiplication C = A*B, Figure 3 — as data: its operands, the
// closed form of its product, and its compiled program at the explicit
// slab sizes the paper's tables fix.
//
// The input matrices are integer-valued rank-one-like patterns whose
// product has a closed form, so results can be verified exactly (integer
// arithmetic in float64 is exact at these magnitudes regardless of the
// reduction order).
//
// The package's tests keep the hand-written node programs of Figures 5, 9
// and 12 as an oracle: the compiled plans must reproduce their simulated
// statistics bit for bit.
package gaxpy

import (
	"fmt"
	"strings"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/plan"
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

// Plan compiles Figure 3 for n x n arrays over procs processors, forced to
// strategy ("column-slab" or "row-slab"), and gives A, B and C slabs of
// slabA, slabB and slabC elements in place of the compiler's memory split.
// The paper's tables are measured at such fixed splits; the in-core
// translation of Figure 5 is row-slab with every slab the whole local
// array.
func Plan(n, procs int, strategy string, slabA, slabB, slabC int) (*plan.Program, error) {
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: n, Procs: procs, MemElems: slabA + slabB + slabC, Force: strategy,
	})
	if err != nil {
		return nil, err
	}
	prg, an := res.Program, res.Analysis
	slabs := map[string]int{an.A: slabA, an.B: slabB, an.C: slabC}
	for i := range prg.Arrays {
		a := &prg.Arrays[i]
		if a.SlabElems = slabs[a.Name]; a.SlabElems <= 0 {
			return nil, fmt.Errorf("gaxpy: slab(%s)=%d must be positive", a.Name, a.SlabElems)
		}
	}
	// The memory notes describe the compiler's split; state this one.
	notes := prg.Notes[:0]
	for _, note := range prg.Notes {
		switch {
		case strings.HasPrefix(note, "slabs cover "):
			continue
		case strings.HasPrefix(note, "memory policy "):
			note = fmt.Sprintf("memory fixed: slab(%s)=%d, slab(%s)=%d, slab(%s)=%d elements",
				an.A, slabA, an.B, slabB, an.C, slabC)
		}
		notes = append(notes, note)
	}
	prg.Notes = notes
	return prg, nil
}

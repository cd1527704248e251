package compiler

// The transpose pattern class: a single FORALL storing one array's rows
// into another's columns,
//
//	FORALL (k = 1:n)
//	  b(1:n,k) = a(k,1:n)
//	end FORALL
//
// Executed naively, every processor gathers one element from every
// column of its source file per result column — the worst possible
// access pattern for a column-major LAF. The out-of-core phase instead
// compiles the statement to one collective redistribution over
// internal/collio and lets the cost model choose how the destination
// files are written (direct runs, a sieved RMW per round, or the
// two-phase window staging).

import (
	"github.com/ooc-hpf/passion/internal/cost"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// TransposeAnalysis is the in-core phase result for the transpose
// pattern.
type TransposeAnalysis struct {
	// Src is the array read row-wise, Dst the one written column-wise.
	Src, Dst string
}

// emitTranspose compiles the transpose to a collective redistribution,
// choosing the destination write strategy with the Figure 14 machinery
// over the closed-form collio candidates.
func emitTranspose(an *Analysis, opts Options, mach sim.Config) (*Result, error) {
	n, p := an.N, an.Procs
	cands := cost.TransposeCandidates(cost.TransposeParams{N: n, P: p, MemElems: opts.MemElems})
	chosen, err := choose(an.Pattern, cands, opts.Force, mach)
	if err != nil {
		return nil, err
	}
	method := cands[chosen].Label

	src, dst := an.Transpose.Src, an.Transpose.Dst
	slab := opts.MemElems / 2
	prg := &plan.Program{
		Name:     "transpose",
		N:        n,
		Procs:    p,
		Strategy: method,
		Arrays: []plan.ArraySpec{
			an.spec(src, plan.In, slab, oocarray.ByColumn),
			an.spec(dst, plan.Out, slab, oocarray.ByColumn),
		},
		Body: []plan.Node{&plan.Redistribute{
			Src: src, Dst: dst, Transpose: true, Method: method, MemElems: opts.MemElems,
		}},
	}
	return finish(an, prg, cands, chosen, mach, an.Comm), nil
}

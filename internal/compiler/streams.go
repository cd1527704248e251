package compiler

// The out-of-core phase's candidates come from the references (DESIGN
// §17): each statement reads every out-of-core array of its right-hand
// side once and writes its target once, and the strip-mining direction
// decides how often and in how many pieces.
// Equations 3-6 (cost.GaxpyColumnSlab / GaxpyRowSlab) are instances.

import (
	"slices"

	"github.com/ooc-hpf/passion/internal/cost"
	"github.com/ooc-hpf/passion/internal/sim"
)

// rowSlabbed reports whether r is strip-mined into row slabs under the
// row-slab candidate: a section 1:n at the FORALL index.
func (a assignment) rowSlabbed(r ref) bool {
	return a.Forall != nil && r.Row.Var == "" && r.Col == sub{Var: a.Forall.Var}
}

// candidate derives the candidate label's streams, one per (statement,
// array): each statement reads its right-hand side's arrays, then writes
// its target, with slab[i] elements for an.Arrays[i]. Arrays outside
// an.Arrays (the reduction's temp) stay in core.
//
// Under column strip-mining a stream is read once per trip of the DO
// around it whose index it does not use: GAXPY's a(1:n,k) inside do j is
// streamed n times, and every stream of a time loop once per trip. Under
// row strip-mining the row-slab loop of the sections at the FORALL index
// moves outside the reduction's DO, so each of them is streamed once (a
// time loop keeps it inside: once per trip), and a reference whose row
// is not 1:n is re-streamed once per slab of that loop (GAXPY's b(k,j)).
func (an *Analysis) candidate(label string, slab []int, sieve bool) cost.Candidate {
	ocla := int64(an.N) * int64(an.N) / int64(an.Procs)
	byRow := label == "row-slab"
	refs := 0
	for _, a := range an.asgs {
		refs += len(a.Refs)
	}
	c := cost.Candidate{Label: label, Streams: make([]cost.Stream, 0, refs)}
	for _, a := range an.asgs {
		restream := int64(1)
		for _, r := range a.Refs {
			if i := slices.Index(an.Arrays, r.Array); i >= 0 && byRow && a.rowSlabbed(r) {
				restream = cost.Stream{OCLAElems: ocla, SlabElems: int64(slab[i])}.SlabsPerPass()
				break
			}
		}
		first := len(c.Streams)
		for j := 1; j <= len(a.Refs); j++ {
			r, write := a.Refs[j%len(a.Refs)], j == len(a.Refs)
			i := slices.Index(an.Arrays, r.Array)
			if i < 0 || slices.ContainsFunc(c.Streams[first:], func(s cost.Stream) bool { return s.Array == r.Array && s.Write == write }) {
				continue // in core, or already streamed by this statement
			}
			s := cost.Stream{Array: r.Array, OCLAElems: ocla, SlabElems: int64(slab[i]),
				Passes: 1, ChunksPerFetch: 1, Write: write}
			switch {
			case byRow && a.rowSlabbed(r):
				s.ChunksPerFetch, s.ElemsPerFetch = an.rowFetch(r.Array, s.SlabElems, sieve)
				if a.Do != nil && an.Pattern != PatternGaxpy {
					s.Passes = int64(a.Trips)
				}
			default:
				if a.Do != nil && r.Row.Var != a.Do.Var && r.Col.Var != a.Do.Var {
					s.Passes = int64(a.Trips)
				}
				if byRow && r.Row.Var != "" {
					s.Passes *= restream
				}
			}
			c.Streams = append(c.Streams, s)
		}
	}
	return c
}

// rowFetch prices one row slab of the column-major local array of name:
// a piece per local column, or with sieving one read of the span from
// the slab's first row in the first column to its last row in the last.
func (an *Analysis) rowFetch(name string, slab int64, sieve bool) (chunks, span int64) {
	m := an.Mappings[name]
	rows, cols := int64(m.Dims[0].LocalCount(0)), int64(m.Dims[1].LocalCount(0))
	if !sieve {
		return cols, 0
	}
	return 1, min(rows*cols, (cols-1)*rows+max(1, slab/cols))
}

// gaxpySplit divides GAXPY's budget between A and B for the candidate
// label by the memory policy (Section 4.2.1); C keeps one column. Only
// the search depends on the label.
func (an *Analysis) gaxpySplit(label string, budget int, opts Options, mach sim.Config) (slabA, slabB int) {
	n := an.N
	switch opts.Policy {
	case PolicyWeighted:
		// The paper's heuristic keys on how often the computation accesses
		// each array, which the unreorganized reference pattern exposes:
		// A's local array is needed for every one of the N result columns,
		// B once. A's and B's streams come first.
		ref := an.candidate("column-slab", []int{budget / 2, budget / 2, n}, false)
		split := cost.WeightedSplit(budget, cost.Frequencies(ref)[:2], n)
		return split[0], split[1]
	case PolicySearch:
		step := n
		if budget < 2*step {
			step = 1
		}
		return cost.Allocate2(budget, step, func(ma, mb int) float64 {
			return an.candidate(label, []int{ma, mb, n}, opts.Runtime.Sieve).Seconds(mach)
		})
	default: // PolicyEven
		return budget / 2, budget - budget/2
	}
}

package compiler

// The FORALL classes. FORALLs over identically aligned arrays whose
// references are all column sections at the index, such as
// z(1:n,k) = 2*x(1:n,k) + y(1:n,k) - 1, need no communication. Every
// array streams exactly once, so the reorganization question is not reuse
// but *contiguity*: strip-mining along the storage order (column slabs of
// the column-major local arrays) needs one disk request per slab, across
// it one per local column. Both candidates go to the cost model — the
// Figure 14 machinery of GAXPY along its other axis.
//
// A column subscript of the index plus a constant, as in
// z(1:n,k) = (x(1:n,k-1) + x(1:n,k+1)) / 2, or bounds inside 1..n may
// reach the neighboring processor's columns — the shift class. Its node
// program exchanges boundary columns, then sweeps halo-augmented column
// slabs; only column slabs are generated (a row-slab sweep would re-fetch
// the halo per row band).

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/cost"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// Stmt is one analyzed FORALL assignment of an elementwise or shifted
// program.
type Stmt struct {
	// Out is the target array; Ins lists the distinct input arrays in
	// first-use order.
	Out string
	Ins []string
	// Lo and Hi are the 0-based inclusive global column bounds.
	Lo, Hi int
	// Expr is the lowered right-hand side: EBuf leaves name input
	// buffers "icla_<array>" in an elementwise program, EBufShift leaves
	// name the array and column offset in a shifted one.
	Expr plan.EExpr
	// MinShift and MaxShift bound the column offsets of the inputs.
	MinShift, MaxShift int
}

// ewiseCandidates builds the two strip-mining candidates: every array is
// streamed exactly once; the candidates differ only in contiguity.
func ewiseCandidates(an *Analysis, slabElems int, sieve bool) []cost.Candidate {
	n, p := an.N, an.Procs
	ocla := int64(n) * int64(n) / int64(p)
	// The local column count determines how fragmented a row slab is;
	// with per-axis divisibility it is the same on every processor.
	shape := an.Mappings[an.Arrays[0]].LocalShape(0)
	localCols := int64(shape[1])
	mk := func(label string, chunks int64, elemsPerFetch int64) cost.Candidate {
		c := cost.Candidate{Label: label}
		for _, name := range an.Arrays {
			c.Streams = append(c.Streams, cost.Stream{
				Array:          name,
				OCLAElems:      ocla,
				SlabElems:      int64(slabElems),
				Passes:         1,
				ChunksPerFetch: chunks,
				ElemsPerFetch:  elemsPerFetch,
			})
		}
		return c
	}
	col := mk("column-slab", 1, 0)
	rowChunks := localCols
	var rowSpan int64
	if sieve {
		rowChunks = 1
		rowSpan = ocla // a sieved row slab spans nearly the whole OCLA
	}
	row := mk("row-slab", rowChunks, rowSpan)
	return []cost.Candidate{col, row}
}

// emitForall runs the out-of-core phase for the elementwise and shifted
// classes, with memory split evenly among the streamed arrays.
func emitForall(an *Analysis, opts Options, mach sim.Config) (*Result, error) {
	perArray := opts.MemElems / len(an.Arrays)
	if perArray < 1 {
		return nil, fmt.Errorf("compiler: MemElems=%d cannot cover %d arrays", opts.MemElems, len(an.Arrays))
	}
	cands := ewiseCandidates(an, perArray, opts.Sieve)
	shift, name := an.Pattern == PatternShift, "ewise"
	if shift {
		cands, name = cands[:1], "shift"
	}
	chosen, err := choose(an.Pattern, cands, opts.Force, mach)
	if err != nil {
		return nil, err
	}
	prg := &plan.Program{Name: name, N: an.N, Procs: an.Procs, Strategy: cands[chosen].Label}
	dim := oocarray.ByColumn
	if prg.Strategy == "row-slab" {
		dim = oocarray.ByRow
	}
	// Outputs not read by any statement are pure outputs.
	reads := map[string]bool{}
	writes := map[string]bool{}
	for _, st := range an.Stmts {
		writes[st.Out] = true
		for _, in := range st.Ins {
			reads[in] = true
		}
	}
	for _, a := range an.Arrays {
		role := plan.In
		if writes[a] && !reads[a] {
			role = plan.Out
		}
		prg.Arrays = append(prg.Arrays, an.spec(a, role, perArray, dim))
	}

	// One node per statement (statement fusion is a possible future
	// optimization; separate sweeps preserve HPF's statement-by-statement
	// semantics).
	for si, st := range an.Stmts {
		if shift {
			prg.Body = append(prg.Body, &plan.ShiftEwise{
				Out: st.Out, Lo: st.Lo, Hi: st.Hi, Expr: st.Expr,
				GhostLeft:  max(0, -st.MinShift),
				GhostRight: max(0, st.MaxShift),
			})
			continue
		}
		// A slab loop: stream the inputs, compute, write the output slab.
		v := fmt.Sprintf("s%d", si)
		body := []plan.Node{}
		for _, in := range st.Ins {
			body = append(body, &plan.ReadSlab{Array: in, Index: v, Buf: "icla_" + in, Stream: true})
		}
		out := "out_" + st.Out
		body = append(body,
			&plan.NewSlab{Array: st.Out, Index: v, Buf: out},
			&plan.Ewise{Out: out, Expr: st.Expr},
			&plan.WriteBuf{Array: st.Out, Buf: out},
		)
		prg.Body = append(prg.Body, &plan.Loop{
			Var: v, Count: plan.CountExpr{SlabsOf: st.Out}, Body: body,
		})
	}
	return finish(an, prg, cands, chosen, mach,
		an.Comm, fmt.Sprintf("memory: %d elements per array across %d arrays", perArray, len(an.Arrays))), nil
}

package compiler

// The FORALL classes. FORALLs over identically aligned arrays whose
// references are all column sections at the index, such as
// z(1:n,k) = 2*x(1:n,k) + y(1:n,k) - 1, need no communication. Each
// statement streams its arrays once, so the reorganization question is
// not reuse but *contiguity*: strip-mining along the storage order
// (column slabs of the column-major local arrays) needs one disk request
// per slab, across it one per local column. Both candidates go to the
// cost model — the Figure 14 machinery of GAXPY along its other axis.
//
// A column subscript of the index plus a constant, as in
// z(1:n,k) = (x(1:n,k-1) + x(1:n,k+1)) / 2, or bounds inside 1..n may
// reach the neighboring processor's columns — the shift class. Its node
// program exchanges boundary columns, then sweeps halo-augmented column
// slabs; only column slabs are generated (a row-slab sweep would re-fetch
// the halo per row band).

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/plan"
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

// forallBody is one node per statement: a ShiftEwise sweep in a shifted
// program, else a slab loop that streams the inputs, computes and writes
// the output slab (statement fusion is a possible future optimization;
// separate sweeps preserve HPF's statement-by-statement semantics).
func forallBody(an *Analysis) []plan.Node {
	body := make([]plan.Node, 0, len(an.Stmts))
	for si, st := range an.Stmts {
		if an.Pattern == PatternShift {
			body = append(body, &plan.ShiftEwise{
				Out: st.Out, Lo: st.Lo, Hi: st.Hi, Expr: st.Expr,
				GhostLeft:  max(0, -st.MinShift),
				GhostRight: max(0, st.MaxShift),
			})
			continue
		}
		v := fmt.Sprintf("s%d", si)
		loop := []plan.Node{}
		for _, in := range st.Ins {
			loop = append(loop, &plan.ReadSlab{Array: in, Index: v, Buf: "icla_" + in, Stream: true})
		}
		out := "out_" + st.Out
		loop = append(loop,
			&plan.NewSlab{Array: st.Out, Index: v, Buf: out},
			&plan.Ewise{Out: out, Expr: st.Expr},
			&plan.WriteBuf{Array: st.Out, Buf: out},
		)
		body = append(body, &plan.Loop{Var: v, Count: plan.CountExpr{SlabsOf: st.Out}, Body: loop})
	}
	return body
}

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
// reach the neighboring processor's columns — the shift class. Each of
// its statements is the same slab loop, led by an Exchange of the
// boundary columns its offsets reach: every input is read halo-widened,
// the output slab is pre-read (columns outside the bounds keep their
// contents) and a bounded Ewise evaluates the columns inside them. Only
// column slabs are generated (a row-slab sweep would re-fetch the halo
// per row band). A row section, as in Jacobi's
// b(2:n-1,k) = (a(1:n-2,k) + a(3:n,k) + ...) / 4, needs no communication
// of its own: every local column holds all n rows, so its rows are read
// at an offset inside the column slab, and the Ewise leaves the rows
// outside the target's section as they were.
//
// Either class may sit in a time loop (a DO around the FORALLs whose
// index none of them uses): its trips repeat the statements' exchanges
// and slab loops inside one top-level loop, which checkpoints per trip.

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
	// Lo and Hi are the 0-based inclusive global column bounds; Top and
	// Bottom the rows left out at either end of the target's row section.
	Lo, Hi      int
	Top, Bottom int
	// Expr is the lowered right-hand side: its EBuf leaves name input
	// buffers "icla_<array>" in an elementwise program, and the halo
	// buffer "halo_<array>" at the reference's row and column offsets in a
	// shifted one. Each buffer kind has its own prefix, so no two buffers of a
	// statement share a slot whatever the arrays are called.
	Expr plan.EExpr
	// MinShift and MaxShift bound the column offsets of the inputs.
	MinShift, MaxShift int
}

// forallBody is one slab loop per statement, led by its exchange in a
// shifted program, that reads the inputs, computes and writes the output
// slab (statement fusion is a possible future optimization; separate
// sweeps preserve HPF's statement-by-statement semantics), all inside the
// time loop when there is one.
func forallBody(an *Analysis) []plan.Node {
	body := make([]plan.Node, 0, len(an.Stmts))
	for si, st := range an.Stmts {
		v := fmt.Sprintf("s%d", si)
		out := "out_" + st.Out
		loop := make([]plan.Node, 0, len(st.Ins)+4)
		if an.Pattern == PatternShift {
			left, right := max(0, -st.MinShift), max(0, st.MaxShift)
			var ex *plan.Exchange
			if left+right > 0 && len(st.Ins) > 0 {
				ex = &plan.Exchange{Left: left, Right: right}
				body = append(body, ex)
			}
			loop = append(loop, &plan.ReadSlab{Array: st.Out, Index: v, Buf: out})
			for _, in := range st.Ins {
				rs := &plan.ReadSlab{Array: in, Index: v, Buf: "halo_" + in}
				if ex != nil {
					rs.Ghosts, rs.Left, rs.Right = "ghost_"+in, left, right
					ex.Arrays, ex.Ghosts = append(ex.Arrays, in), append(ex.Ghosts, rs.Ghosts)
				}
				loop = append(loop, rs)
			}
			loop = append(loop, &plan.Ewise{Out: out, Expr: st.Expr, Array: st.Out, Lo: st.Lo, Hi: st.Hi,
				Top: st.Top, Bottom: st.Bottom})
		} else {
			for _, in := range st.Ins {
				loop = append(loop, &plan.ReadSlab{Array: in, Index: v, Buf: "icla_" + in, Stream: true})
			}
			loop = append(loop,
				&plan.NewSlab{Array: st.Out, Index: v, Buf: out},
				&plan.Ewise{Out: out, Expr: st.Expr},
			)
		}
		loop = append(loop, &plan.WriteBuf{Array: st.Out, Buf: out})
		body = append(body, &plan.Loop{Var: v, Count: plan.CountExpr{SlabsOf: st.Out}, Body: loop})
	}
	if a := an.asgs[0]; a.Do != nil {
		return []plan.Node{&plan.Loop{Var: "t", Count: plan.CountExpr{Lit: a.Trips}, Body: body}}
	}
	return body
}

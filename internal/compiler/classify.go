package compiler

import (
	"fmt"
	"slices"

	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/plan"
)

// classify derives the program's communication class from its references
// and fills in the analysis of that class.
func classify(prog *hpf.Program, env map[string]int, an *Analysis) error {
	asgs, err := readBody(prog.Body, env, an.N)
	if err != nil {
		return err
	}
	for _, a := range asgs {
		for _, r := range a.Refs {
			if _, ok := an.Mappings[r.Array]; !ok {
				return fmt.Errorf("compiler: array %q has no ALIGN directive", r.Array)
			}
		}
	}
	if an.Pattern, err = commClass(prog, asgs, an.N); err != nil {
		return err
	}
	if an.Pattern != PatternEwise && len(an.GridShape) != 1 {
		return fmt.Errorf("compiler: the %s pattern requires a 1-D processor arrangement", an.Pattern)
	}
	an.asgs = asgs
	switch an.Pattern {
	case PatternGaxpy:
		return reduction(prog.Body[0].(*hpf.DoLoop), asgs, env, an)
	case PatternTranspose:
		return transpose(prog, asgs, an)
	}
	return foralls(asgs, env, an)
}

// commClass derives the communication class from the kinds of reference
// the program makes:
//
//   - reduction to the owner (PatternGaxpy): a single DO holding a FORALL
//     that scales column sections by broadcast elements, then a SUM across
//     the distributed dimension (the paper's Figure 3);
//   - none (PatternEwise): FORALLs over 1..n whose references are all
//     column sections 1:n at the FORALL index;
//   - ghost shift (PatternShift): FORALLs with some column section at the
//     index plus a nonzero constant, bounds inside 1..n, or row sections
//     other than 1:n (each conformable with its target's: lo+d:hi+d for
//     the target's lo:hi, read at row offset d);
//   - all-to-all (PatternTranspose): one transposed reference.
//
// The FORALL classes may sit in a time loop: a DO that is the whole body,
// holds only FORALLs and whose index none of them references.
func commClass(prog *hpf.Program, asgs []assignment, n int) (Pattern, error) {
	body := prog.Body
	if do, ok := body[0].(*hpf.DoLoop); ok && len(body) == 1 {
		if !timeLoop(do, asgs) {
			return PatternGaxpy, nil
		}
		if asgs[0].Trips == 0 {
			return 0, fmt.Errorf("compiler: time loop (%s = %s, %s): bounds must be constants with at least one trip", do.Var, do.Lo, do.Hi)
		}
		body = do.Body
	}
	for _, st := range body {
		if _, ok := st.(*hpf.Forall); !ok {
			return 0, fmt.Errorf("compiler: statement %T is not a FORALL (a DO loop must be the whole body: the GAXPY reduction, or a time loop of FORALLs)", st)
		}
	}
	transposed, shifted := false, false
	for _, a := range asgs {
		k, out := a.Forall.Var, a.Refs[0]
		if out.Row.Var != "" || out.Col != (sub{Var: k}) {
			return 0, fmt.Errorf("compiler: target %s must be %s(lo:hi,%s)", out, out.Array, k)
		}
		shifted = shifted || a.Lo != 0 || a.Hi != n-1 || out.Row != (sub{})
		for _, r := range a.Refs[1:] {
			switch {
			case r.Row.Var == "" && r.Col.Var != "":
				if d := r.Row.Head - out.Row.Head; r.Row.Tail != out.Row.Tail-d {
					return 0, fmt.Errorf("compiler: operand %s: row section is not conformable with the target's %s", r, out.Row)
				}
				shifted = shifted || r.Col.Off != 0
			case r.Row.Var != "" && r.Col == (sub{}):
				transposed = true
			default:
				return 0, fmt.Errorf("compiler: operand %s: a FORALL reads column sections %s(lo:hi,%s±c) or one transposed section %s(%s,1:n)",
					r, r.Array, k, r.Array, k)
			}
		}
	}
	switch {
	case transposed:
		return PatternTranspose, nil
	case shifted:
		return PatternShift, nil
	}
	return PatternEwise, nil
}

// timeLoop reports whether do, the whole body, is a time loop: it holds
// only FORALLs, and none of their references uses its index.
func timeLoop(do *hpf.DoLoop, asgs []assignment) bool {
	for _, st := range do.Body {
		if _, ok := st.(*hpf.Forall); !ok {
			return false
		}
	}
	for _, a := range asgs {
		for _, r := range a.Refs {
			if r.Row.Var == do.Var || r.Col.Var == do.Var {
				return false
			}
		}
	}
	return true
}

// foralls fills in the statements of an elementwise or shifted program,
// lowering each right-hand side with the class's buffer reference.
func foralls(asgs []assignment, env map[string]int, an *Analysis) error {
	an.Comm = "all FORALL statements are elementwise over identically mapped arrays: no communication required"
	var st Stmt // the statement being lowered
	leaf := func(r ref) plan.EExpr { return &plan.EBuf{Buf: "icla_" + r.Array} }
	if an.Pattern == PatternShift {
		an.Comm = "shifted column references cross the BLOCK boundaries: boundary-column exchange with the neighboring processors (shift communication), then a halo-augmented local sweep"
		leaf = func(r ref) plan.EExpr {
			return &plan.EBuf{Buf: "halo_" + r.Array, Array: r.Array, Off: r.Col.Off, Row: r.Row.Head - st.Top}
		}
	}
	an.Stmts = make([]Stmt, 0, len(asgs))
	for _, a := range asgs {
		out := a.Refs[0]
		st = Stmt{Out: out.Array, Lo: a.Lo, Hi: a.Hi, Top: out.Row.Head, Bottom: out.Row.Tail}
		for _, r := range a.Refs {
			if slices.Contains(an.Arrays, r.Array) {
				continue
			}
			// A shift may only cross column-block boundaries; elementwise
			// arrays all share one mapping (a cross-distribution FORALL
			// needs communication).
			m := an.Mappings[r.Array]
			if an.Pattern == PatternShift && m.DistributedDim() != 1 {
				return fmt.Errorf("compiler: array %q must be distributed column-block", r.Array)
			}
			if an.Pattern == PatternEwise && len(an.Arrays) > 0 && !slices.Equal(m.Dims, an.Mappings[an.Arrays[0]].Dims) {
				return fmt.Errorf("compiler: array %q mapping %s differs from %q's; cross-distribution FORALLs need communication (unsupported)",
					r.Array, m, an.Arrays[0])
			}
			an.Arrays = append(an.Arrays, r.Array)
		}
		for _, r := range a.Refs[1:] {
			if !slices.Contains(st.Ins, r.Array) {
				st.Ins = append(st.Ins, r.Array)
			}
			st.MinShift, st.MaxShift = min(st.MinShift, r.Col.Off), max(st.MaxShift, r.Col.Off)
		}
		rest := a.Refs[1:]
		var err error
		if st.Expr, err = lowerExpr(a.RHS, env, &rest, leaf); err != nil {
			return err
		}
		if an.Pattern == PatternShift {
			if slices.Contains(st.Ins, st.Out) {
				return fmt.Errorf("compiler: array %q appears on both sides of a shifted statement (copy-in semantics unsupported)", st.Out)
			}
			// Every referenced column must exist for every written one.
			if st.Lo+st.MinShift < 0 || st.Hi+st.MaxShift > an.N-1 {
				return fmt.Errorf("compiler: shifted references of %q run outside 1..n for the FORALL bounds", st.Out)
			}
			// Ghosts may only reach the adjacent processor.
			if w := an.N / an.Procs; -st.MinShift > w || st.MaxShift > w {
				return fmt.Errorf("compiler: shift magnitude exceeds a processor's block width %d", w)
			}
		}
		an.Stmts = append(an.Stmts, st)
	}
	return nil
}

// reduction reads the GAXPY roles off the references of
//
//	do j = 1, n
//	  FORALL (k = 1:n)
//	    temp(1:n,k) = b(k,j) * a(1:n,k)
//	  end FORALL
//	  c(1:n,j) = SUM(temp, 2)
//	end do
//
// A is the column section, B the element broadcast across the FORALL, C
// the SUM's target and temp the FORALL's; all four are distinct arrays.
func reduction(do *hpf.DoLoop, asgs []assignment, env map[string]int, an *Analysis) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("compiler: GAXPY reduction: "+format, args...)
	}
	if !spansWholeExtent(do.Lo, do.Hi, env, an.N) {
		return fail("the DO loop must run 1..n")
	}
	if len(do.Body) != 2 || len(asgs) != 2 || asgs[0].Forall == nil || asgs[1].Forall != nil {
		return fail("the DO body must be a FORALL of one assignment followed by a reduction assignment")
	}
	fa, red := asgs[0], asgs[1]
	if fa.Lo != 0 || fa.Hi != an.N-1 {
		return fail("the FORALL must run 1..n")
	}
	j, k := do.Var, fa.Forall.Var
	if j == k {
		return fail("the DO and FORALL indices must differ, both are %q", k)
	}

	// temp(1:n,k) = b(k,j) * a(1:n,k), the product in either order.
	mul, ok := fa.RHS.(*hpf.BinOp)
	if !ok || mul.Op != '*' || !isRef(mul.L) || !isRef(mul.R) {
		return fail("the FORALL right-hand side must be the product of two array references")
	}
	temp, a, b := fa.Refs[0], fa.Refs[1], fa.Refs[2]
	if b.Row.Var == "" {
		// The product commutes: keep A's reference first, so that A's
		// stream precedes B's as in Equations 3-6.
		a, b = b, a
		fa.Refs[1], fa.Refs[2] = a, b
	}
	if temp != section(temp.Array, k) {
		return fail("the FORALL target %s must be %s(1:n,%s)", temp, temp.Array, k)
	}
	if a != section(a.Array, k) {
		return fail("section operand %s must be %s(1:n,%s)", a, a.Array, k)
	}
	if b != (ref{Array: b.Array, Row: sub{Var: k}, Col: sub{Var: j}}) {
		return fail("broadcast operand %s must be %s(%s,%s)", b, b.Array, k, j)
	}

	// c(1:n,j) = SUM(temp, 2).
	sum, ok := red.RHS.(*hpf.SumIntrinsic)
	if !ok {
		return fail("the reduction right-hand side must be SUM(...)")
	}
	c, arg := red.Refs[0], red.Refs[1]
	if arg != (ref{Array: temp.Array}) {
		return fail("SUM must reduce the whole FORALL target %s, got %s", temp.Array, arg)
	}
	if dim, err := hpf.Eval(sum.Dim, env); err != nil || dim != 2 {
		return fail("the SUM dimension must be the constant 2")
	}
	if c != section(c.Array, j) {
		return fail("the reduction target %s must be %s(1:n,%s)", c, c.Array, j)
	}
	an.A, an.B, an.C, an.Temp, an.ReduceDim = a.Array, b.Array, c.Array, temp.Array, 2
	// temp is produced and consumed inside one DO iteration: a vector in
	// core, not an out-of-core array.
	an.Arrays = []string{an.A, an.B, an.C}
	roles := [...]string{an.A, an.B, an.C, an.Temp}
	for i, x := range roles {
		if slices.Contains(roles[i+1:], x) {
			return fail("array %q plays two of the roles A, B, C and temp", x)
		}
	}

	// The FORALL needs no communication when a, c and temp are
	// column-block and b row-block; the SUM is then a cross-processor
	// global reduction delivered to the owner of the result column.
	if an.Mappings[an.A].DistributedDim() != 1 || an.Mappings[an.C].DistributedDim() != 1 ||
		an.Mappings[an.Temp].DistributedDim() != 1 {
		return fail("%s, %s and %s must be distributed along dimension 2 (column-block)", an.A, an.C, an.Temp)
	}
	if an.Mappings[an.B].DistributedDim() != 0 {
		return fail("%s must be distributed along dimension 1 (row-block)", an.B)
	}
	an.Comm = fmt.Sprintf(
		"FORALL is communication-free (owner computes on local %s columns paired with local %s rows); "+
			"SUM(%s,2) reduces across the distributed dimension -> global sum; "+
			"owner of %s's column stores the result",
		an.A, an.B, an.Temp, an.C)
	return nil
}

func isRef(e hpf.Expr) bool {
	_, ok := e.(*hpf.SectionRef)
	return ok
}

// transpose reads the single FORALL dst(1:n,k) = src(k,1:n) over two
// distinct column-block arrays.
func transpose(prog *hpf.Program, asgs []assignment, an *Analysis) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("compiler: transpose: "+format, args...)
	}
	a := asgs[0]
	if len(prog.Body) != 1 || len(asgs) != 1 || a.Do != nil {
		return fail("a transposed reference must be the whole of a program's single FORALL assignment")
	}
	if a.Lo != 0 || a.Hi != an.N-1 {
		return fail("the FORALL must run 1..n")
	}
	k := a.Forall.Var
	dst, src := a.Refs[0], a.Refs[1]
	if dst != section(dst.Array, k) {
		return fail("the target %s must be %s(1:n,%s)", dst, dst.Array, k)
	}
	if _, ok := a.RHS.(*hpf.SectionRef); !ok || src != (ref{Array: src.Array, Row: sub{Var: k}}) {
		return fail("the right-hand side must be exactly %s(%s,1:n)", src.Array, k)
	}
	if src.Array == dst.Array {
		return fail("in-place transpose of %q is not supported", src.Array)
	}
	an.Arrays = []string{src.Array, dst.Array}
	for _, name := range an.Arrays {
		if an.Mappings[name].DistributedDim() != 1 {
			return fail("array %q must be distributed along dimension 2 (column-block)", name)
		}
	}
	an.Transpose = &TransposeAnalysis{Src: src.Array, Dst: dst.Array}
	an.Comm = fmt.Sprintf(
		"FORALL %s(1:n,%s) = %s(%s,1:n) transposes across the distributed dimension: "+
			"every element changes owner -> collective all-to-all redistribution of %s into %s",
		dst.Array, k, src.Array, k, src.Array, dst.Array)
	return nil
}

// TransposeAnalysis is the in-core phase result for the transpose
// pattern. Executed naively, every processor would gather one element
// from every column of its source file per result column, the worst
// access pattern for a column-major LAF; the out-of-core phase compiles
// the statement to one collective redistribution over internal/collio
// instead, and the cost model chooses how the destination files are
// written (direct runs, a sieved RMW per round, or the two-phase window
// staging: cost.TransposeCandidates).
type TransposeAnalysis struct {
	// Src is the array read row-wise, Dst the one written column-wise.
	Src, Dst string
}

package compiler

// The in-core phase reads the program as array references (Section 3.2:
// the communication a statement needs follows from how it references the
// distributed arrays). Every assignment is walked once, inside its
// DO/FORALL nest, into references whose subscripts are each either the
// whole extent 1:n or a loop index plus a constant; classify then derives
// the communication class from which kinds of reference occur. A range
// subscript may be any section lo:hi within 1..n.

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/plan"
)

// sub is one classified subscript: the loop index Var plus Off, or, when
// Var is empty, the section 1+Head:n-Tail (the zero value is the whole
// extent 1:n).
type sub struct {
	Var        string
	Off        int
	Head, Tail int
}

// ref is one array reference with both subscripts classified. By which
// subscripts are whole, a reference is a column section (row whole), a
// transposed section (column whole), one element (neither) or the whole
// array (both; only a SUM argument).
type ref struct {
	Array    string
	Row, Col sub
}

func (s sub) String() string {
	if s.Var == "" {
		hi := "n"
		if s.Tail > 0 {
			hi = fmt.Sprintf("n-%d", s.Tail)
		}
		return fmt.Sprintf("%d:%s", 1+s.Head, hi)
	}
	if s.Off == 0 {
		return s.Var
	}
	return fmt.Sprintf("%s%+d", s.Var, s.Off)
}

func (r ref) String() string { return fmt.Sprintf("%s(%s,%s)", r.Array, r.Row, r.Col) }

// section is the reference name(1:n, v).
func section(name, v string) ref { return ref{Array: name, Col: sub{Var: v}} }

// assignment is one assignment read as references.
type assignment struct {
	// Do and Forall are the enclosing loops, nil where there is none;
	// Trips is the DO's trip count (0 when its bounds are not constant),
	// and Lo and Hi are the FORALL's bounds, 0-based inclusive.
	Do     *hpf.DoLoop
	Trips  int
	Forall *hpf.Forall
	Lo, Hi int
	RHS    hpf.Expr
	// Refs holds the target first, then the right-hand side's
	// references left to right (a SUM contributes its argument).
	Refs []ref
}

// walker reads a program body into assignments. The parameter
// environment is passed down, not held, so that it stays on the stack.
type walker struct {
	n    int
	asgs []assignment
	// buf backs every assignment's Refs.
	buf []ref
	// do and forall are the loops around the statement being read,
	// trips the DO's trip count, lo and hi the FORALL's bounds.
	do     *hpf.DoLoop
	trips  int
	forall *hpf.Forall
	lo, hi int
}

// readBody walks every assignment of body once, inside its DO/FORALL
// nest, into references.
func readBody(body []hpf.Stmt, env map[string]int, n int) ([]assignment, error) {
	w := walker{n: n, asgs: make([]assignment, 0, 2), buf: make([]ref, 0, 6), hi: n - 1}
	if err := w.stmts(body, env); err != nil {
		return nil, err
	}
	if len(w.asgs) == 0 {
		return nil, fmt.Errorf("compiler: the program has no assignments")
	}
	return w.asgs, nil
}

func (w *walker) stmts(body []hpf.Stmt, env map[string]int) error {
	for _, st := range body {
		switch st := st.(type) {
		case *hpf.DoLoop:
			if w.do != nil {
				return fmt.Errorf("compiler: nested DO loops are not supported")
			}
			w.do, w.trips = st, 0
			lo, err1 := hpf.Eval(st.Lo, env)
			hi, err2 := hpf.Eval(st.Hi, env)
			if err1 == nil && err2 == nil && hi >= lo {
				w.trips = hi - lo + 1
			}
			if err := w.stmts(st.Body, env); err != nil {
				return err
			}
			w.do = nil
		case *hpf.Forall:
			if len(st.Body) == 0 {
				return fmt.Errorf("compiler: FORALL (%s = %s:%s) has no assignments", st.Var, st.Lo, st.Hi)
			}
			lo, err1 := hpf.Eval(st.Lo, env)
			hi, err2 := hpf.Eval(st.Hi, env)
			if err1 != nil || err2 != nil || lo < 1 || hi > w.n || lo > hi {
				return fmt.Errorf("compiler: FORALL (%s = %s:%s): bounds must be constants within 1..n", st.Var, st.Lo, st.Hi)
			}
			w.forall, w.lo, w.hi = st, lo-1, hi-1
			if err := w.stmts(st.Body, env); err != nil {
				return err
			}
			w.forall, w.lo, w.hi = nil, 0, w.n-1
		case *hpf.Assign:
			if err := w.assign(st, env); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *walker) assign(st *hpf.Assign, env map[string]int) error {
	start := len(w.buf)
	var err error
	if w.buf, err = w.refs(st.LHS, env, w.buf); err != nil {
		return err
	}
	if w.buf, err = w.refs(st.RHS, env, w.buf); err != nil {
		return err
	}
	w.asgs = append(w.asgs, assignment{
		Do: w.do, Trips: w.trips, Forall: w.forall, Lo: w.lo, Hi: w.hi, RHS: st.RHS,
		Refs: w.buf[start:len(w.buf):len(w.buf)],
	})
	return nil
}

// refs appends the references of e, left to right.
func (w *walker) refs(e hpf.Expr, env map[string]int, out []ref) ([]ref, error) {
	switch e := e.(type) {
	case *hpf.SectionRef:
		r := ref{Array: e.Array}
		switch len(e.Subs) {
		case 0: // a bare SUM argument names the whole array
		case 2:
			var ok bool
			if r.Row, ok = w.sub(e.Subs[0], env); !ok {
				return nil, fmt.Errorf("compiler: reference %s: row subscript is neither a section within 1:n nor a loop index ± a constant", e)
			}
			if r.Col, ok = w.sub(e.Subs[1], env); !ok {
				return nil, fmt.Errorf("compiler: reference %s: column subscript is neither a section within 1:n nor a loop index ± a constant", e)
			}
		default:
			return nil, fmt.Errorf("compiler: reference %s: want 2 subscripts, got %d", e, len(e.Subs))
		}
		return append(out, r), nil
	case *hpf.SumIntrinsic:
		return w.refs(e.Arg, env, out)
	case *hpf.BinOp:
		out, err := w.refs(e.L, env, out)
		if err != nil {
			return nil, err
		}
		return w.refs(e.R, env, out)
	}
	return out, nil
}

// sub classifies one subscript.
func (w *walker) sub(s hpf.Subscript, env map[string]int) (sub, bool) {
	if s.IsRange() {
		lo, err1 := hpf.Eval(s.Lo, env)
		hi, err2 := hpf.Eval(s.Hi, env)
		return sub{Head: lo - 1, Tail: w.n - hi}, err1 == nil && err2 == nil && 1 <= lo && lo <= hi && hi <= w.n
	}
	switch e := s.Index.(type) {
	case *hpf.Ident:
		if w.inScope(e.Name) {
			return sub{Var: e.Name}, true
		}
	case *hpf.BinOp:
		id, ok := e.L.(*hpf.Ident)
		if !ok || !w.inScope(id.Name) || (e.Op != '+' && e.Op != '-') {
			break
		}
		d, err := hpf.Eval(e.R, env)
		if err != nil {
			break
		}
		if e.Op == '-' {
			d = -d
		}
		return sub{Var: id.Name, Off: d}, true
	}
	return sub{}, false
}

func (w *walker) inScope(name string) bool {
	return (w.do != nil && w.do.Var == name) || (w.forall != nil && w.forall.Var == name)
}

// spansWholeExtent reports whether lo..hi evaluates to 1..n.
func spansWholeExtent(lo, hi hpf.Expr, env map[string]int, n int) bool {
	l, err1 := hpf.Eval(lo, env)
	h, err2 := hpf.Eval(hi, env)
	return err1 == nil && err2 == nil && l == 1 && h == n
}

// lowerExpr lowers a right-hand side to a plan expression: constants and
// parameters fold, and leaf lowers each array reference, which refs
// holds in the order the walk read them.
func lowerExpr(e hpf.Expr, env map[string]int, refs *[]ref, leaf func(ref) plan.EExpr) (plan.EExpr, error) {
	switch e := e.(type) {
	case *hpf.Num:
		return &plan.EConst{V: float64(e.Value)}, nil
	case *hpf.Ident:
		v, ok := env[e.Name]
		if !ok {
			return nil, fmt.Errorf("compiler: scalar %q is neither a parameter nor a constant", e.Name)
		}
		return &plan.EConst{V: float64(v)}, nil
	case *hpf.SectionRef:
		r := (*refs)[0]
		*refs = (*refs)[1:]
		return leaf(r), nil
	case *hpf.BinOp:
		l, err := lowerExpr(e.L, env, refs, leaf)
		if err != nil {
			return nil, err
		}
		r, err := lowerExpr(e.R, env, refs, leaf)
		if err != nil {
			return nil, err
		}
		return &plan.EBin{Op: e.Op, L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("compiler: unsupported expression %s", e)
	}
}

package compiler

import (
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/plan"
)

// TestJacobiCompilesToOneTripLoop: the time loop becomes the program's
// one top-level node, a loop of iters trips holding an exchange and a
// slab loop per sweep, and lowers to LOOP_CKPT; the row sections become
// row offsets of the halo leaves inside row bounds of the target.
func TestJacobiCompilesToOneTripLoop(t *testing.T) {
	res, err := CompileSource(hpf.JacobiSource, Options{MemElems: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.Pattern != PatternShift {
		t.Fatalf("pattern %s, want shifted", res.Analysis.Pattern)
	}
	body := res.Program.Body
	trip, ok := body[0].(*plan.Loop)
	if len(body) != 1 || !ok || trip.Count != (plan.CountExpr{Lit: 3}) {
		t.Fatalf("body is not one loop of 3 trips:\n%s", res.Program)
	}
	var shape []string
	for _, n := range trip.Body {
		shape = append(shape, plan.NodeLabel(n))
	}
	if got := strings.Join(shape, ", "); got != "Exchange, loop s0, Exchange, loop s1" {
		t.Fatalf("trip body %s, want an exchange and a slab loop per sweep", got)
	}
	ew := trip.Body[1].(*plan.Loop).Body[2].(*plan.Ewise)
	if ew.Top != 1 || ew.Bottom != 1 || ew.Lo != 1 || ew.Hi != 62 {
		t.Errorf("sweep bounds rows less (%d,%d), columns %d..%d; want (1,1) and 1..62", ew.Top, ew.Bottom, ew.Lo, ew.Hi)
	}
	if got, want := ew.Expr.String(), "((((a(r-1,k)+a(r+1,k))+a(:,k-1))+a(:,k+1))/4)"; got != want {
		t.Errorf("sweep expression %s, want %s", got, want)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Code[2].Op != bytecode.OpLoopCkpt {
		t.Errorf("the time loop lowers to %s, want LOOP_CKPT:\n%s", bc.Code[2].Op, bc.Disassemble())
	}
	// One trip of the ledger per trip of the loop.
	for _, s := range res.Candidates[0].Streams {
		if s.Passes != 3 {
			t.Errorf("stream %s write=%v: %d passes, want 3", s.Array, s.Write, s.Passes)
		}
	}
}

// TestTimeLoopAroundElementwise: an elementwise body in a time loop keeps
// its class and both candidates, each stream read once per trip.
func TestTimeLoopAroundElementwise(t *testing.T) {
	src := strings.Replace(strings.Replace(hpf.EwiseSource, "FORALL (k=1:n)\n  z", "do it=1, 2\nFORALL (k=1:n)\n  z", 1),
		"end FORALL\nend\n", "end FORALL\nend do\nend\n", 1)
	res, err := CompileSource(src, Options{MemElems: 1 << 12})
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if res.Analysis.Pattern != PatternEwise || len(res.Candidates) != 2 {
		t.Fatalf("pattern %s with %d candidates, want elementwise with 2", res.Analysis.Pattern, len(res.Candidates))
	}
	flat, err := CompileSource(hpf.EwiseSource, Options{MemElems: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Candidates {
		if got, want := c.TotalElems(), 2*flat.Candidates[i].TotalElems(); got != want {
			t.Errorf("%s: %d elements, want twice one trip's %d", c.Label, got, want)
		}
	}
}

// TestTimeLoopAndRowSectionRejections: a DO that is not a time loop is
// still read as the GAXPY reduction, and a row section must be
// conformable with its target's.
func TestTimeLoopAndRowSectionRejections(t *testing.T) {
	jacobi := func(old, new string) string { return strings.Replace(hpf.JacobiSource, old, new, 1) }
	for _, tc := range []struct{ name, src, want string }{
		{"index used", jacobi("a(2:n-1,k+1)) / 4", "a(2:n-1,it)) / 4"), "GAXPY reduction"},
		{"bounds not constant", jacobi("do it=1, iters", "do it=1, m"), "time loop"},
		{"no trips", jacobi("do it=1, iters", "do it=2, 1"), "time loop"},
		{"not conformable", jacobi("a(1:n-2,k)", "a(1:n-3,k)"), "not conformable"},
		{"outside 1..n", jacobi("a(3:n,k)", "a(3:n+1,k)"), "row subscript"},
		{"column section", jacobi("a(2:n-1,k-1)", "a(2:n-1,2:n)"), "a FORALL reads column sections"},
		{"transpose in the loop", strings.Replace(strings.Replace(hpf.TransposeSource, "FORALL", "do it=1, 2\nFORALL", 1),
			"end FORALL\n", "end FORALL\nend do\n", 1), "whole of a program's single FORALL"},
		{"statement beside the loop", jacobi("end do\n", "end do\nFORALL (k=1:n)\n  a(1:n,k) = b(1:n,k)\nend FORALL\n"), "is not a FORALL"},
	} {
		_, err := CompileSource(tc.src, Options{MemElems: 1 << 10})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

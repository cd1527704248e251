package hpf

import (
	"os"
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("do j=1, n\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{IDENT, IDENT, EQUALS, NUMBER, COMMA, IDENT, NEWLINE, EOF}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexDirectiveVsComment(t *testing.T) {
	toks, err := Lex("!hpf$ processors pr(4)\n! a plain comment\nx(1) = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != DIRECTIVE {
		t.Errorf("first token should be DIRECTIVE, got %v", toks[0].Kind)
	}
	// The comment line contributes nothing but (collapsed) newlines.
	var idents []string
	for _, tk := range toks {
		if tk.Kind == IDENT {
			idents = append(idents, tk.Text)
		}
	}
	if strings.Join(idents, " ") != "processors pr x" {
		t.Errorf("idents = %v", idents)
	}
}

func TestLexCaseInsensitive(t *testing.T) {
	toks, err := Lex("FORALL (K=1:N)\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "forall" || toks[2].Text != "k" {
		t.Errorf("identifiers not lowered: %v", toks)
	}
}

func TestLexDoubleColon(t *testing.T) {
	toks, err := Lex(":: a:b\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != DCOLON || toks[2].Kind != COLON {
		t.Errorf("colon tokens wrong: %v", toks)
	}
}

func TestLexRejectsGarbage(t *testing.T) {
	if _, err := Lex("a = #\n"); err == nil {
		t.Error("expected lex error on '#'")
	}
}

// TestLexReportsNonASCIICharacter checks an unexpected multi-byte
// character is named whole, not by the first byte of its encoding.
func TestLexReportsNonASCIICharacter(t *testing.T) {
	_, err := Parse("program é\n")
	if err == nil || err.Error() != "hpf: 1:9: unexpected character 'é'" {
		t.Fatalf("got %v, want the whole character at 1:9", err)
	}
}

// TestLexAllocs pins Lex of testdata/gaxpy.hpf at four allocations: the
// token slice, sized once, and the lower-cased text of its two FORALLs
// and its SUM.
func TestLexAllocs(t *testing.T) {
	src, err := os.ReadFile("../../testdata/gaxpy.hpf")
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	if got := testing.AllocsPerRun(100, func() { Lex(s) }); got != 4 {
		t.Fatalf("Lex of gaxpy.hpf: %v allocations, want 4", got)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[2].Line != 2 || toks[2].Col != 3 {
		t.Errorf("positions wrong: %v", toks)
	}
}

func TestParseGaxpyProgram(t *testing.T) {
	prog, err := Parse(GaxpySource)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := prog.ParamValue("n"); !ok || v != 64 {
		t.Errorf("param n = %d, %v", v, ok)
	}
	if v, ok := prog.ParamValue("nprocs"); !ok || v != 4 {
		t.Errorf("param nprocs = %d, %v", v, ok)
	}
	if len(prog.Arrays) != 4 {
		t.Fatalf("arrays = %d, want 4", len(prog.Arrays))
	}
	if a, ok := prog.Array("temp"); !ok || len(a.Dims) != 2 {
		t.Errorf("temp decl missing or wrong arity")
	}
	if prog.Processors == nil || prog.Processors.Name != "pr" {
		t.Fatalf("processors directive missing")
	}
	if prog.Template == nil || prog.Template.Name != "d" {
		t.Fatalf("template directive missing")
	}
	if prog.Distribute == nil || prog.Distribute.Scheme() != "block" || prog.Distribute.Procs != "pr" {
		t.Fatalf("distribute directive wrong: %+v", prog.Distribute)
	}
	if len(prog.Aligns) != 2 {
		t.Fatalf("aligns = %d, want 2", len(prog.Aligns))
	}
	al := prog.Aligns[0]
	if al.Pattern[0] != AxisCollapsed || al.Pattern[1] != AxisAligned {
		t.Errorf("first align pattern wrong: %v", al.Pattern)
	}
	if strings.Join(al.Arrays, ",") != "a,c,temp" {
		t.Errorf("first align arrays: %v", al.Arrays)
	}
	if prog.Aligns[1].Pattern[0] != AxisAligned || prog.Aligns[1].Pattern[1] != AxisCollapsed {
		t.Errorf("second align pattern wrong: %v", prog.Aligns[1].Pattern)
	}

	// Body: one do loop containing a FORALL and an assignment.
	if len(prog.Body) != 1 {
		t.Fatalf("body has %d statements", len(prog.Body))
	}
	do, ok := prog.Body[0].(*DoLoop)
	if !ok {
		t.Fatalf("body[0] is %T", prog.Body[0])
	}
	if do.Var != "j" {
		t.Errorf("do var = %q", do.Var)
	}
	if len(do.Body) != 2 {
		t.Fatalf("do body has %d statements", len(do.Body))
	}
	fa, ok := do.Body[0].(*Forall)
	if !ok {
		t.Fatalf("do body[0] is %T", do.Body[0])
	}
	if fa.Var != "k" || len(fa.Body) != 1 {
		t.Errorf("forall shape wrong: %+v", fa)
	}
	asg := fa.Body[0].(*Assign)
	if asg.LHS.Array != "temp" || !asg.LHS.Subs[0].IsRange() || asg.LHS.Subs[1].IsRange() {
		t.Errorf("forall assignment LHS wrong: %s", asg.LHS.String())
	}
	mul, ok := asg.RHS.(*BinOp)
	if !ok || mul.Op != '*' {
		t.Fatalf("forall RHS should be a product: %s", asg.RHS.String())
	}
	sumAsg, ok := do.Body[1].(*Assign)
	if !ok {
		t.Fatalf("do body[1] is %T", do.Body[1])
	}
	sum, ok := sumAsg.RHS.(*SumIntrinsic)
	if !ok {
		t.Fatalf("RHS should be SUM, got %s", sumAsg.RHS.String())
	}
	if sum.Arg.Array != "temp" {
		t.Errorf("SUM argument = %q", sum.Arg.Array)
	}
	if d, err := Eval(sum.Dim, nil); err != nil || d != 2 {
		t.Errorf("SUM dim = %d, %v", d, err)
	}
}

func TestParseRoundTripsThroughString(t *testing.T) {
	prog, err := Parse(GaxpySource)
	if err != nil {
		t.Fatal(err)
	}
	printed := prog.String()
	reparsed, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of printed program failed: %v\n%s", err, printed)
	}
	if reparsed.String() != printed {
		t.Errorf("print/parse not a fixpoint:\n--- first\n%s\n--- second\n%s", printed, reparsed.String())
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	prog, err := Parse("real x(4)\nx(1) = 1 + 2*3 - 4/2\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	asg := prog.Body[0].(*Assign)
	v, err := Eval(asg.RHS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("1+2*3-4/2 = %d, want 5", v)
	}
}

func TestParseUnaryMinusAndParens(t *testing.T) {
	prog, err := Parse("real x(4)\nx(1) = -(2+3)*2\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Eval(prog.Body[0].(*Assign).RHS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != -10 {
		t.Errorf("-(2+3)*2 = %d, want -10", v)
	}
}

func TestEvalEnvAndErrors(t *testing.T) {
	prog, err := Parse("parameter (n=8)\nreal x(n)\nx(1) = n/2\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	env := ParamEnv(prog)
	if env["n"] != 8 {
		t.Fatalf("env = %v", env)
	}
	v, err := Eval(prog.Body[0].(*Assign).RHS, env)
	if err != nil || v != 4 {
		t.Errorf("n/2 = %d, %v", v, err)
	}
	if _, err := Eval(&Ident{Name: "missing"}, env); err == nil {
		t.Error("undefined name should fail")
	}
	if _, err := Eval(&BinOp{Op: '/', L: &Num{1}, R: &Num{0}}, nil); err == nil {
		t.Error("division by zero should fail")
	}
	if _, err := Eval(&SectionRef{Array: "a"}, nil); err == nil {
		t.Error("array ref is not a constant expression")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"missing end do", "do i=1, 4\nx(i) = 1\n"},
		{"bad directive", "!hpf$ frobnicate a(4)\nend\n"},
		{"bad distribution", "!hpf$ distribute d(diagonal) on pr\nend\n"},
		{"align pattern junk", "!hpf$ align (+,-) with d :: a\nend\n"},
		{"assignment to scalar", "x = 1\nend\n"},
		{"statement after end", "end\nx(1) = 2\n"},
		{"forall with loop inside", "forall (k=1:4)\ndo i=1,2\nx(i)=1\nend do\nend forall\nend\n"},
		{"sum without dim", "real t(4)\nx(1) = sum(t)\nend\n"},
		{"unclosed paren", "real x(4\nend\n"},
		{"garbage at line end", "parameter (n=4) n\nend\n"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.src); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		}
	}
}

func TestParseCyclicDistribution(t *testing.T) {
	prog, err := Parse("!hpf$ distribute d(cyclic(4)) on pr\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Distribute.Scheme() != "cyclic" {
		t.Errorf("scheme = %q", prog.Distribute.Scheme())
	}
	if v, err := Eval(prog.Distribute.Arg, nil); err != nil || v != 4 {
		t.Errorf("cyclic arg = %d, %v", v, err)
	}
}

func TestParseMultipleStatementsAndNesting(t *testing.T) {
	src := `parameter (n=4)
real x(n,n), y(n,n)
do i=1, n
  do j=1, n
    x(i,j) = y(i,j) + 1
  end do
end do
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Body[0].(*DoLoop)
	inner := outer.Body[0].(*DoLoop)
	if outer.Var != "i" || inner.Var != "j" {
		t.Errorf("nesting wrong: %s then %s", outer.Var, inner.Var)
	}
}

func TestKindString(t *testing.T) {
	for k := EOF; k <= DIRECTIVE; k++ {
		if k.String() == "" {
			t.Errorf("Kind %d has empty name", k)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestParseOutOfCoreAndMemoryDirectives(t *testing.T) {
	src := `parameter (n=8, m=64)
real a(n,n)
!hpf$ processors pr(2)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ out_of_core :: a
!hpf$ memory (m*2)
!hpf$ align (*,:) with d :: a
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.OutOfCore) != 1 || prog.OutOfCore[0] != "a" {
		t.Errorf("OutOfCore = %v", prog.OutOfCore)
	}
	if prog.Memory == nil {
		t.Fatal("memory directive missing")
	}
	if v, err := Eval(prog.Memory, ParamEnv(prog)); err != nil || v != 128 {
		t.Errorf("memory = %d, %v", v, err)
	}
	// Round-trips through String().
	printed := prog.String()
	re, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, printed)
	}
	if re.String() != printed {
		t.Error("directive printing not a fixpoint")
	}
}

func TestParseOutOfCoreErrors(t *testing.T) {
	if _, err := Parse("!hpf$ out_of_core a\nend\n"); err == nil {
		t.Error("missing :: should fail")
	}
	if _, err := Parse("!hpf$ memory 64\nend\n"); err == nil {
		t.Error("missing parens should fail")
	}
}

// TestSourcesMatchTestdata keeps one copy of each program text: the
// constants the examples and tests compile are byte for byte the
// testdata files the tools and the compiler witness read.
func TestSourcesMatchTestdata(t *testing.T) {
	for file, src := range map[string]string{
		"scaledupdate":  EwiseSource,
		"transpose":     TransposeSource,
		"columnstencil": ColumnStencilSource,
		"jacobi":        JacobiSource,
	} {
		raw, err := os.ReadFile("../../testdata/" + file + ".hpf")
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != src {
			t.Errorf("testdata/%s.hpf differs from its constant", file)
		}
	}
}

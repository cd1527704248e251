package compiler

import (
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
)

func TestEwiseRecognized(t *testing.T) {
	res, err := CompileSource(hpf.EwiseSource, Options{MemElems: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if an.Pattern != PatternEwise {
		t.Fatalf("pattern = %v", an.Pattern)
	}
	if len(an.Stmts) != 2 {
		t.Fatalf("statements = %+v", an.Stmts)
	}
	if got := strings.Join(an.Arrays, ","); got != "z,x,y,w" {
		t.Errorf("arrays = %q", got)
	}
	s0 := an.Stmts[0]
	if s0.Out != "z" || strings.Join(s0.Ins, ",") != "x,y" {
		t.Errorf("stmt0 = %+v", s0)
	}
	// alpha resolves to its parameter value inside the expression.
	if !strings.Contains(s0.Expr.String(), "3") {
		t.Errorf("alpha not folded: %s", s0.Expr.String())
	}
	if !strings.Contains(an.Comm, "no communication") {
		t.Errorf("comm analysis: %q", an.Comm)
	}
}

func TestEwisePicksContiguousSlabs(t *testing.T) {
	// Both candidates move the same data once; the column-slab one needs
	// an order of magnitude fewer requests, so it must win.
	res, err := CompileSource(hpf.EwiseSource, Options{MemElems: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Strategy != "column-slab" {
		t.Errorf("strategy = %s", res.Program.Strategy)
	}
	col, row := res.Candidates[0], res.Candidates[1]
	if col.TotalElems() != row.TotalElems() {
		t.Errorf("data volume should match: %d vs %d", col.TotalElems(), row.TotalElems())
	}
	if col.TotalRequests() >= row.TotalRequests() {
		t.Errorf("column slabs should need fewer requests: %d vs %d",
			col.TotalRequests(), row.TotalRequests())
	}
	for _, spec := range res.Program.Arrays {
		if spec.SlabDim != oocarray.ByColumn {
			t.Errorf("array %s strip-mined %v", spec.Name, spec.SlabDim)
		}
	}
}

func TestEwiseProgramShape(t *testing.T) {
	res, err := CompileSource(hpf.EwiseSource, Options{MemElems: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	prg := res.Program
	if len(prg.Body) != 2 {
		t.Fatalf("want one slab loop per statement, got %d", len(prg.Body))
	}
	loop, ok := prg.Body[0].(*plan.Loop)
	if !ok || loop.Count.SlabsOf != "z" {
		t.Fatalf("first loop wrong: %+v", prg.Body[0])
	}
	// Roles: x, y are pure inputs; w is a pure output; z is written then
	// read, hence an input from the allocator's perspective.
	roles := map[string]plan.Role{}
	for _, a := range prg.Arrays {
		roles[a.Name] = a.Role
	}
	if roles["w"] != plan.Out {
		t.Errorf("w should be a pure output")
	}
	if roles["x"] != plan.In || roles["z"] != plan.In {
		t.Errorf("roles: %v", roles)
	}
	text := prg.String()
	for _, want := range []string{"new_slab(z", "out_z(:)", "out_w(:)", "strategy=column-slab"} {
		if !strings.Contains(text, want) {
			t.Errorf("program text missing %q:\n%s", want, text)
		}
	}
}

func TestEwiseRowBlockMapping(t *testing.T) {
	src := strings.Replace(hpf.EwiseSource, "align (*,:)", "align (:,*)", 1)
	res, err := CompileSource(src, Options{MemElems: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.Pattern != PatternEwise {
		t.Fatal("row-block elementwise program should be accepted")
	}
	// Row-block local arrays have n columns, so row slabs are even more
	// fragmented; column slabs still win.
	if res.Program.Strategy != "column-slab" {
		t.Errorf("strategy = %s", res.Program.Strategy)
	}
}

func TestEwiseForceRowSlab(t *testing.T) {
	res, err := CompileSource(hpf.EwiseSource, Options{MemElems: 1 << 12, Force: "row-slab"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Strategy != "row-slab" {
		t.Errorf("force ignored: %s", res.Program.Strategy)
	}
}

func TestEwiseSieveChangesRowCandidate(t *testing.T) {
	plain, err := CompileSource(hpf.EwiseSource, Options{MemElems: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	sieved, err := CompileSource(hpf.EwiseSource, Options{MemElems: 1 << 12, Runtime: oocarray.Options{Sieve: true}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Candidates[1].TotalRequests() == sieved.Candidates[1].TotalRequests() {
		t.Error("sieving should change the row-slab request count")
	}
}

func TestEwiseRejections(t *testing.T) {
	cases := []struct{ name, src string }{
		{
			"mixed mappings",
			strings.Replace(hpf.EwiseSource,
				"!hpf$ align (*,:) with d :: x, y, z, w",
				"!hpf$ align (*,:) with d :: x, z, w\n!hpf$ align (:,*) with d :: y", 1),
		},
		{
			"unknown scalar",
			strings.Replace(hpf.EwiseSource, "alpha*x(1:n,k)", "beta*x(1:n,k)", 1),
		},
		{
			"loop variable as scalar",
			strings.Replace(hpf.EwiseSource, "alpha*x(1:n,k)", "k*x(1:n,k)", 1),
		},
		{
			"partial section",
			strings.Replace(hpf.EwiseSource, "z(1:n,k) = alpha*x(1:n,k)", "z(1:n,k) = alpha*x(2:n,k)", 1),
		},
	}
	for _, tc := range cases {
		if _, err := CompileSource(tc.src, Options{MemElems: 1 << 12}); err == nil {
			t.Errorf("%s: expected compile error", tc.name)
		}
	}
}

func TestEwiseTinyMemoryRejected(t *testing.T) {
	if _, err := CompileSource(hpf.EwiseSource, Options{MemElems: 2}); err == nil {
		t.Error("memory below one element per array should fail")
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		PatternGaxpy: "gaxpy", PatternEwise: "elementwise", PatternShift: "shifted",
		PatternTranspose: "transpose", Pattern(9): "Pattern(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Pattern(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestMemoryDirectiveSupplied(t *testing.T) {
	src := strings.Replace(hpf.GaxpySource,
		"!hpf$ processors pr(nprocs)",
		"!hpf$ processors pr(nprocs)\n!hpf$ out_of_core :: a, b, c, temp\n!hpf$ memory (n*16)", 1)
	res, err := CompileSource(src, Options{}) // no MemElems: comes from the directive
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.Program.Array("a")
	b, _ := res.Program.Array("b")
	c, _ := res.Program.Array("c")
	total := a.SlabElems + b.SlabElems + c.SlabElems
	if total > 64*16 {
		t.Errorf("directive memory overcommitted: %d > %d", total, 64*16)
	}
	// Explicit options still win.
	res2, err := CompileSource(src, Options{MemElems: 64 * 32})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := res2.Program.Array("a")
	if a2.SlabElems <= a.SlabElems {
		t.Error("explicit MemElems should override the directive")
	}
}

func TestOutOfCoreDirectiveValidation(t *testing.T) {
	missing := strings.Replace(hpf.GaxpySource,
		"!hpf$ processors pr(nprocs)",
		"!hpf$ processors pr(nprocs)\n!hpf$ out_of_core :: a, b", 1)
	if _, err := CompileSource(missing, Options{MemElems: 1 << 12}); err == nil {
		t.Error("arrays missing from out_of_core should be rejected")
	}
	undeclared := strings.Replace(hpf.GaxpySource,
		"!hpf$ processors pr(nprocs)",
		"!hpf$ processors pr(nprocs)\n!hpf$ out_of_core :: a, b, c, temp, ghost", 1)
	if _, err := CompileSource(undeclared, Options{MemElems: 1 << 12}); err == nil {
		t.Error("undeclared array in out_of_core should be rejected")
	}
}

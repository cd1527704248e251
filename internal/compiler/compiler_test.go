package compiler

import (
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

func compileGaxpy(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := CompileSource(hpf.GaxpySource, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAnalysisRecognizesGaxpy(t *testing.T) {
	res := compileGaxpy(t, Options{MemElems: 1 << 12})
	an := res.Analysis
	if an.N != 64 || an.Procs != 4 {
		t.Errorf("n=%d procs=%d", an.N, an.Procs)
	}
	if an.A != "a" || an.B != "b" || an.C != "c" || an.Temp != "temp" {
		t.Errorf("roles: a=%q b=%q c=%q temp=%q", an.A, an.B, an.C, an.Temp)
	}
	if an.ReduceDim != 2 {
		t.Errorf("reduce dim = %d", an.ReduceDim)
	}
	if !strings.Contains(an.Comm, "global sum") {
		t.Errorf("communication analysis missing global sum: %q", an.Comm)
	}
	// Mappings: a column-block, b row-block.
	if an.Mappings["a"].DistributedDim() != 1 || an.Mappings["b"].DistributedDim() != 0 {
		t.Error("mappings wrong")
	}
}

func TestOverridesApplied(t *testing.T) {
	res := compileGaxpy(t, Options{N: 128, Procs: 8, MemElems: 1 << 13})
	if res.Program.N != 128 || res.Program.Procs != 8 {
		t.Errorf("program n=%d procs=%d", res.Program.N, res.Program.Procs)
	}
}

func TestCompilerSelectsRowSlab(t *testing.T) {
	// The paper's core claim: the cost model must pick the row-slab
	// reorganization for the GAXPY program.
	for _, p := range []int{4, 16, 64} {
		for _, memCols := range []int{4, 16, 64} {
			res := compileGaxpy(t, Options{N: 1024, Procs: p, MemElems: 1024 * memCols})
			if res.Program.Strategy != "row-slab" {
				t.Errorf("P=%d mem=%d cols: selected %s", p, memCols, res.Program.Strategy)
			}
			if res.Candidates[res.Chosen].Label != "row-slab" {
				t.Errorf("chosen candidate mismatch")
			}
		}
	}
}

func TestForceStrategy(t *testing.T) {
	res := compileGaxpy(t, Options{MemElems: 1 << 12, Force: "column-slab"})
	if res.Program.Strategy != "column-slab" {
		t.Errorf("force ignored: %s", res.Program.Strategy)
	}
	if _, err := CompileSource(hpf.GaxpySource, Options{MemElems: 1 << 12, Force: "diagonal"}); err == nil {
		t.Error("unknown forced strategy should fail")
	}
}

func TestEmittedRowSlabShape(t *testing.T) {
	res := compileGaxpy(t, Options{MemElems: 1 << 12})
	prg := res.Program
	if len(prg.Arrays) != 3 {
		t.Fatalf("arrays = %d", len(prg.Arrays))
	}
	a, _ := prg.Array("a")
	if a.SlabDim != oocarray.ByRow {
		t.Errorf("a strip-mined %v, want row-slab", a.SlabDim)
	}
	b, _ := prg.Array("b")
	if b.SlabDim != oocarray.ByColumn {
		t.Errorf("b strip-mined %v", b.SlabDim)
	}
	c, _ := prg.Array("c")
	if c.Role != plan.Out {
		t.Errorf("c role %v", c.Role)
	}
	// Outer loop over slabs of a.
	outer, ok := prg.Body[0].(*plan.Loop)
	if !ok || outer.Count.SlabsOf != "a" {
		t.Fatalf("row-slab program must loop over slabs of a first: %+v", prg.Body[0])
	}
	// Pretty-printing mentions the runtime calls.
	text := prg.String()
	for _, want := range []string{"read_slab(a", "read_slab(b", "global_sum", "strategy=row-slab"} {
		if !strings.Contains(text, want) {
			t.Errorf("program text missing %q:\n%s", want, text)
		}
	}
}

func TestEmittedColumnSlabShape(t *testing.T) {
	res := compileGaxpy(t, Options{MemElems: 1 << 12, Force: "column-slab"})
	prg := res.Program
	a, _ := prg.Array("a")
	if a.SlabDim != oocarray.ByColumn {
		t.Errorf("a strip-mined %v, want column-slab", a.SlabDim)
	}
	outer, ok := prg.Body[2].(*plan.Loop)
	if !ok || outer.Count.SlabsOf != "b" {
		t.Fatalf("column-slab program must loop over slabs of b: %+v", prg.Body)
	}
	if !strings.Contains(prg.String(), "auto_stage(c)") {
		t.Error("column-slab program should auto-stage c")
	}
}

func TestMemoryPolicies(t *testing.T) {
	// Memory well below the local array size (the Table 2 regime, where
	// the A-vs-B split matters).
	const mem = 512 // OCLA is 64*64/4 = 1024 elements
	even := compileGaxpy(t, Options{MemElems: mem, Policy: PolicyEven})
	a, _ := even.Program.Array("a")
	b, _ := even.Program.Array("b")
	if diff := a.SlabElems - b.SlabElems; diff < -1 || diff > 1 {
		t.Errorf("even policy split %d/%d", a.SlabElems, b.SlabElems)
	}
	for _, policy := range []MemPolicy{PolicyWeighted, PolicySearch} {
		res := compileGaxpy(t, Options{MemElems: mem, Policy: policy})
		a, _ := res.Program.Array("a")
		b, _ := res.Program.Array("b")
		if a.SlabElems <= b.SlabElems {
			t.Errorf("%v policy should favor a: %d vs %d", policy, a.SlabElems, b.SlabElems)
		}
		if a.SlabElems+b.SlabElems > mem {
			t.Errorf("%v policy overcommits memory: %d + %d > %d", policy, a.SlabElems, b.SlabElems, mem)
		}
	}
}

func TestReportListsBothCandidates(t *testing.T) {
	res := compileGaxpy(t, Options{MemElems: 1 << 12})
	if !strings.Contains(res.Report(), "row-slab") || !strings.Contains(res.Report(), "column-slab") {
		t.Errorf("report incomplete:\n%s", res.Report())
	}
	if !strings.Contains(res.Report(), "* row-slab") {
		t.Errorf("report should mark row-slab chosen:\n%s", res.Report())
	}
	// Notes carry the decisions into the program.
	joined := strings.Join(res.Program.Notes, "\n")
	for _, want := range []string{"global sum", "memory policy", "[selected]"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts Options
	}{
		{"no memory", hpf.GaxpySource, Options{}},
		{"n not multiple of p", hpf.GaxpySource, Options{N: 30, MemElems: 1 << 12}},
		{"missing processors", "parameter (n=4)\nreal a(n,n)\n!hpf$ template d(n)\n!hpf$ distribute d(block) on pr\nend\n", Options{MemElems: 64}},
		{"missing template", "parameter (n=4, nprocs=2)\n!hpf$ processors pr(nprocs)\nend\n", Options{MemElems: 64}},
		{"cyclic distribution", strings.Replace(hpf.GaxpySource, "d(block)", "d(cyclic)", 1), Options{MemElems: 1 << 12}},
		{"tiny memory", hpf.GaxpySource, Options{MemElems: 10}},
		{"wrong body", "parameter (n=4, nprocs=2)\nreal a(n,n)\n!hpf$ processors pr(nprocs)\n!hpf$ template d(n)\n!hpf$ distribute d(block) on pr\n!hpf$ align (*,:) with d :: a\na(1:n,1) = a(1:n,2)\nend\n", Options{MemElems: 64}},
		// GAXPY shapes that once compiled as the full Figure 3 program
		// (or failed only when lowered): each breaks one of the roles.
		{"partial section", gaxpyEdit(t, "b(k,j)*a(1:n,k)", "b(k,j)*a(2:3,k)"), Options{MemElems: 1 << 12}},
		{"partial FORALL target", gaxpyEdit(t, "temp(1:n,k) =", "temp(2:3,k) ="), Options{MemElems: 1 << 12}},
		{"SUM over a subsection", gaxpyEdit(t, "SUM(temp,2)", "SUM(temp(1:2,1:n),2)"), Options{MemElems: 1 << 12}},
		{"one index for both loops", gaxpyEdit(t, "do j=1, n", "do k=1, n", "b(k,j)", "b(k,k)", "c(1:n,j)", "c(1:n,k)"), Options{MemElems: 1 << 12}},
		{"FORALL target aliases the section", gaxpyEdit(t, "temp(1:n,k) =", "a(1:n,k) =", "SUM(temp,2)", "SUM(a,2)"), Options{MemElems: 1 << 12}},
		{"C aliases A", gaxpyEdit(t, "c(1:n,j) =", "a(1:n,j) ="), Options{MemElems: 1 << 12}},
		{"C aliases temp", gaxpyEdit(t, "c(1:n,j) =", "temp(1:n,j) ="), Options{MemElems: 1 << 12}},
		// A FORALL must hold an assignment; a lone empty one was once a
		// division by zero in the out-of-core phase.
		{"lone empty FORALL", strings.Replace(hpf.TransposeSource, "b(1:n,k) = a(k,1:n)\n", "", 1), Options{MemElems: 1 << 12}},
		{"empty FORALL", strings.Replace(hpf.EwiseSource, "z(1:n,k) = alpha*x(1:n,k) + y(1:n,k) - 1\n", "", 1), Options{MemElems: 1 << 12}},
	}
	for _, tc := range cases {
		if _, err := CompileSource(tc.src, tc.opts); err == nil {
			t.Errorf("%s: expected compile error", tc.name)
		}
	}
}

// gaxpyEdit applies old/new replacement pairs to the Figure 3 program,
// each exactly once.
func gaxpyEdit(t *testing.T, pairs ...string) string {
	t.Helper()
	src := hpf.GaxpySource
	for i := 0; i < len(pairs); i += 2 {
		if !strings.Contains(src, pairs[i]) {
			t.Fatalf("GAXPY source has no %q", pairs[i])
		}
		src = strings.Replace(src, pairs[i], pairs[i+1], 1)
	}
	return src
}

func TestZeroOffsetIsTheIndex(t *testing.T) {
	// x(1:n,k+0) is the reference x(1:n,k): the same elementwise program
	// to the fingerprint.
	opts := Options{MemElems: 1 << 12}
	want, err := CompileSource(hpf.EwiseSource, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CompileSource(strings.Replace(hpf.EwiseSource, "alpha*x(1:n,k)", "alpha*x(1:n,k+0)", 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Analysis.Pattern != PatternEwise {
		t.Fatalf("pattern = %v", got.Analysis.Pattern)
	}
	if g, w := plan.Fingerprint(got.Program, nil), plan.Fingerprint(want.Program, nil); g != w {
		t.Errorf("fingerprint %s, want %s", g, w)
	}
}

func TestForceByLabel(t *testing.T) {
	// Every pattern resolves Force against its own candidates' labels and
	// rejects any other label.
	all := []string{"column-slab", "row-slab", "direct", "sieved", "two-phase", "twophase", "diagonal"}
	for _, wp := range witnessPrograms {
		src, err := os.ReadFile("../../testdata/" + wp.name + ".hpf")
		if err != nil {
			t.Fatal(err)
		}
		for _, force := range all {
			label := force
			if force == "twophase" {
				label = "two-phase"
			}
			res, err := CompileSource(string(src), Options{MemElems: 1 << 12, Force: force})
			switch {
			case slices.Contains(wp.labels, label) && err != nil:
				t.Errorf("%s force %q: %v", wp.name, force, err)
			case slices.Contains(wp.labels, label) && res.Program.Strategy != label:
				t.Errorf("%s force %q: compiled %s", wp.name, force, res.Program.Strategy)
			case !slices.Contains(wp.labels, label) && err == nil:
				t.Errorf("%s force %q: accepted, compiled %s", wp.name, force, res.Program.Strategy)
			case !slices.Contains(wp.labels, label) && !strings.Contains(err.Error(), strings.Join(wp.labels, ", ")):
				t.Errorf("%s force %q: error does not name the valid labels: %v", wp.name, force, err)
			}
		}
	}
}

func TestUnsupportedShapes(t *testing.T) {
	// Swapping the distributions must be rejected by communication
	// analysis (b column-block would need different communication).
	src := strings.Replace(strings.Replace(hpf.GaxpySource,
		"align (*,:) with d :: a, c, temp", "align (:,*) with d :: a, c, temp", 1),
		"align (:,*) with d :: b", "align (*,:) with d :: b", 1)
	if _, err := CompileSource(src, Options{MemElems: 1 << 12}); err == nil {
		t.Error("swapped distributions should be rejected")
	}
}

func TestCommutedProductAccepted(t *testing.T) {
	src := strings.Replace(hpf.GaxpySource, "b(k,j)*a(1:n,k)", "a(1:n,k)*b(k,j)", 1)
	res, err := CompileSource(src, Options{MemElems: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.A != "a" || res.Analysis.B != "b" {
		t.Errorf("commuted roles wrong: %+v", res.Analysis)
	}
}

func TestSieveOptionPropagates(t *testing.T) {
	plain := compileGaxpy(t, Options{MemElems: 1 << 12})
	sieved := compileGaxpy(t, Options{MemElems: 1 << 12, Runtime: oocarray.Options{Sieve: true}})
	// Sieving changes the row-slab candidate's request count.
	if plain.Candidates[1].TotalRequests() == sieved.Candidates[1].TotalRequests() {
		t.Error("sieve option did not affect the cost model")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyEven.String() != "even" || PolicyWeighted.String() != "weighted" || PolicySearch.String() != "search" {
		t.Error("policy names wrong")
	}
	if MemPolicy(9).String() == "" {
		t.Error("unknown policy should render")
	}
}

func TestMachineOverride(t *testing.T) {
	// A machine with free requests but tiny bandwidth still prefers
	// row-slab (data volume dominates even more).
	mach := sim.Delta(4)
	mach.DiskRequestOverhead = 0
	res := compileGaxpy(t, Options{MemElems: 1 << 12, Machine: mach})
	if res.Program.Strategy != "row-slab" {
		t.Errorf("strategy = %s", res.Program.Strategy)
	}
}

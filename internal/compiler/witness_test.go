package compiler

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

var updateWitness = flag.Bool("update-witness", false,
	"rewrite testdata/compile_witness.txt and testdata/cost_residuals.txt from this run (regenerate only when compiled output, or the cost model's distance from the runtime, is meant to change)")

const compileWitnessPath = "testdata/compile_witness.txt"

// witnessPrograms are the repository's five example programs with the
// labels of their candidates, each of which is also compiled as a force.
var witnessPrograms = []struct {
	name   string
	labels []string
}{
	{"gaxpy", []string{"column-slab", "row-slab"}},
	{"scaledupdate", []string{"column-slab", "row-slab"}},
	{"columnstencil", []string{"column-slab"}},
	{"transpose", []string{"direct", "sieved", "two-phase"}},
	{"jacobi", []string{"column-slab"}},
}

// describeAnalysis renders the in-core phase the way ooc-compile prints
// it: the pattern, the per-statement or per-role lines and the
// communication.
func describeAnalysis(an *Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d procs=%d pattern: %s\n", an.N, an.Procs, an.Pattern)
	switch an.Pattern {
	case PatternGaxpy:
		for _, r := range [...]struct{ name, role string }{
			{an.A, "A (section operand)"}, {an.B, "B (scalar operand)"},
			{an.C, "C (result)"}, {an.Temp, "temp (FORALL target)"},
		} {
			fmt.Fprintf(&b, "  %-6s role %-22s mapping %s\n", r.name, r.role, an.Mappings[r.name])
		}
	case PatternEwise:
		for i, st := range an.Stmts {
			fmt.Fprintf(&b, "  statement %d: %s = %s (inputs: %v)\n", i+1, st.Out, st.Expr.String(), st.Ins)
		}
		for _, a := range an.Arrays {
			fmt.Fprintf(&b, "  %-6s mapping %s\n", a, an.Mappings[a])
		}
	case PatternShift:
		for i, st := range an.Stmts {
			rows := ":"
			if st.Top != 0 || st.Bottom != 0 {
				rows = fmt.Sprintf("%d:%d", st.Top+1, an.N-st.Bottom)
			}
			fmt.Fprintf(&b, "  statement %d: %s(%s,k) = %s for k in %d..%d (shifts %d..%d, inputs: %v)\n",
				i+1, st.Out, rows, st.Expr.String(), st.Lo+1, st.Hi+1, st.MinShift, st.MaxShift, st.Ins)
		}
		for _, a := range an.Arrays {
			fmt.Fprintf(&b, "  %-6s mapping %s\n", a, an.Mappings[a])
		}
	case PatternTranspose:
		for _, a := range []string{an.Transpose.Src, an.Transpose.Dst} {
			fmt.Fprintf(&b, "  %-6s mapping %s\n", a, an.Mappings[a])
		}
	}
	fmt.Fprintf(&b, "  communication: %s\n", an.Comm)
	return b.String()
}

// witnessLines compiles every program over compile_sweep's grid (the
// paper's Table 1 range) under every policy, force and sieve setting and
// returns one line per setting: how many tuples compiled, how many were
// rejected, and a hash over everything the accepted ones produced.
func witnessLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, wp := range witnessPrograms {
		src, err := os.ReadFile("../../testdata/" + wp.name + ".hpf")
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []MemPolicy{PolicyEven, PolicyWeighted, PolicySearch} {
			for _, force := range append([]string{""}, wp.labels...) {
				for _, sieve := range []bool{false, true} {
					h := sha256.New()
					accepted, rejected := 0, 0
					for _, n := range []int{64, 256, 1024, 4096, 16384} {
						for _, p := range []int{4, 16, 64, 256, 512} {
							for _, d := range []int{1, 4, 16, 64} {
								mem := n * n / p / d
								if mem < 1 {
									continue
								}
								res, err := CompileSource(string(src), Options{
									N: n, Procs: p, MemElems: mem, Machine: sim.Delta(p),
									Policy: policy, Force: force, Runtime: oocarray.Options{Sieve: sieve},
								})
								if err != nil {
									rejected++
									continue
								}
								accepted++
								if rt := res.Program.Runtime; rt != (oocarray.Options{Sieve: sieve}) {
									t.Fatalf("%s n=%d p=%d mem=%d: plan carries runtime %+v, want sieve=%t", wp.name, n, p, mem, rt, sieve)
								}
								bc, err := bytecode.Compile(res.Program)
								if err != nil {
									t.Fatalf("%s n=%d p=%d mem=%d: accepted program does not lower: %v", wp.name, n, p, mem, err)
								}
								fmt.Fprintf(h, "tuple n=%d p=%d mem=%d\n%s", n, p, mem, describeAnalysis(res.Analysis))
								for _, note := range res.Program.Notes {
									fmt.Fprintf(h, "note %s\n", note)
								}
								fmt.Fprintf(h, "report %s\n", res.Report())
								for _, c := range res.Candidates {
									fmt.Fprintf(h, "candidate %s\n", c.String())
								}
								// The disassembly header's encoding version is left
								// out: a bump of the binary format alone moves no line.
								disasm := strings.Replace(bc.Disassemble(), fmt.Sprintf(" version=%d\n", bytecode.Version), "\n", 1)
								// The lines were recorded before plans carried their
								// runtime switches: hash the plan without them.
								code := *res.Program
								code.Runtime = oocarray.Options{}
								fmt.Fprintf(h, "program %s\nfingerprint %s\nbytecode %s\n",
									code.String(), plan.Fingerprint(&code, nil), disasm)
							}
						}
					}
					lines = append(lines, fmt.Sprintf("%s policy=%s force=%q sieve=%t accepted=%d rejected=%d %x",
						wp.name, policy, force, sieve, accepted, rejected, h.Sum(nil)))
				}
			}
		}
	}
	return lines
}

// TestCompileWitness holds the compiler to testdata/compile_witness.txt
// (the gaxpy and transpose lines recorded before the in-core phase was
// rewritten over array references, the FORALL programs' lines when their
// candidates came to be derived from them; EXPERIMENTS.md gives both
// commands): every example program, over the
// paper's range of N, P and memory and every policy, force and sieve
// setting, must compile to the same analysis, candidates, notes, report,
// program, fingerprint and opcode stream, and reject the same tuples.
func TestCompileWitness(t *testing.T) {
	got := strings.Join(witnessLines(t), "\n") + "\n"
	if *updateWitness {
		if err := os.WriteFile(compileWitnessPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(compileWitnessPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	for i := range max(len(want), len(have)) {
		w, g := "<missing>", "<missing>"
		if i < len(want) {
			w = want[i]
		}
		if i < len(have) {
			g = have[i]
		}
		if w != g {
			t.Errorf("line %d differs from %s\n got: %s\nwant: %s", i+1, compileWitnessPath, g, w)
		}
	}
}

// BenchmarkCompile compiles each example program, parsed once, at one
// compile_sweep tuple: n=1024, P=16, memory a quarter of the local
// array, the weighted policy.
func BenchmarkCompile(b *testing.B) {
	const n, p = 1024, 16
	for _, wp := range witnessPrograms {
		src, err := os.ReadFile("../../testdata/" + wp.name + ".hpf")
		if err != nil {
			b.Fatal(err)
		}
		prog, err := hpf.Parse(string(src))
		if err != nil {
			b.Fatal(err)
		}
		opts := Options{N: n, Procs: p, MemElems: n * n / p / 4, Machine: sim.Delta(p), Policy: PolicyWeighted}
		b.Run(wp.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(prog, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

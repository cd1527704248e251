// ooc-compile translates a mini-HPF program into an out-of-core node
// program, printing the in-core phase analysis, the I/O cost estimates of
// every candidate access reorganization, and the selected node + MP + I/O
// pseudo-code (the tool-side view of the paper's Figures 9/12/14).
//
// Usage:
//
//	ooc-compile [flags] [source.hpf]
//
// With no source file the built-in GAXPY program of the paper's Figure 3
// is compiled.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
)

func main() {
	var (
		n       = flag.Int("n", 0, "override the problem size n (0 keeps the program's parameter)")
		procs   = flag.Int("procs", 0, "override the processor count (0 keeps the program's parameter)")
		mem     = flag.Int("mem", 0, "node memory for slabs, in array elements (0 keeps the program's !hpf$ memory, else 65536)")
		policy  = flag.String("policy", "weighted", "memory allocation policy: even, weighted, search")
		force   = flag.String("force", "", "force a strategy by candidate label: row-slab/column-slab, or direct/sieved/two-phase for transpose (default: cost model decides)")
		sieve   = flag.Bool("sieve", false, "compile row-slab transfers to use data sieving")
		showBC  = flag.Bool("bytecode", false, "also lower the plan to its opcode stream and print the disassembly")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.VersionLine("ooc-compile"))
		return
	}

	src := hpf.GaxpySource
	name := "builtin gaxpy (Figure 3)"
	if flag.NArg() > 0 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
		name = flag.Arg(0)
	}

	var pol compiler.MemPolicy
	switch *policy {
	case "even":
		pol = compiler.PolicyEven
	case "weighted":
		pol = compiler.PolicyWeighted
	case "search":
		pol = compiler.PolicySearch
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	prog, err := hpf.Parse(src)
	if err != nil {
		fatal(err)
	}
	if *mem == 0 && prog.Memory == nil {
		*mem = 1 << 16
	}
	res, err := compiler.Compile(prog, compiler.Options{
		N: *n, Procs: *procs, MemElems: *mem, Policy: pol, Force: *force, Runtime: oocarray.Options{Sieve: *sieve},
	})
	if err != nil {
		fatal(err)
	}

	an := res.Analysis
	fmt.Printf("source: %s\n", name)
	fmt.Printf("in-core phase: n=%d over %d processors, pattern: %s\n", an.N, an.Procs, an.Pattern)
	switch an.Pattern {
	case compiler.PatternGaxpy:
		// A fixed order, so that two runs print the same bytes.
		for _, r := range [...]struct{ name, role string }{
			{an.A, "A (section operand)"}, {an.B, "B (scalar operand)"},
			{an.C, "C (result)"}, {an.Temp, "temp (FORALL target)"},
		} {
			fmt.Printf("  %-6s role %-22s mapping %s\n", r.name, r.role, an.Mappings[r.name])
		}
	case compiler.PatternEwise, compiler.PatternShift:
		for i, st := range an.Stmts {
			if an.Pattern == compiler.PatternEwise {
				fmt.Printf("  statement %d: %s = %s (inputs: %v)\n", i+1, st.Out, st.Expr.String(), st.Ins)
				continue
			}
			rows := ":"
			if st.Top != 0 || st.Bottom != 0 {
				rows = fmt.Sprintf("%d:%d", st.Top+1, an.N-st.Bottom)
			}
			fmt.Printf("  statement %d: %s(%s,k) = %s for k in %d..%d (shifts %d..%d, inputs: %v)\n",
				i+1, st.Out, rows, st.Expr.String(), st.Lo+1, st.Hi+1, st.MinShift, st.MaxShift, st.Ins)
		}
		for _, a := range an.Arrays {
			fmt.Printf("  %-6s mapping %s\n", a, an.Mappings[a])
		}
	case compiler.PatternTranspose:
		for _, a := range []string{an.Transpose.Src, an.Transpose.Dst} {
			fmt.Printf("  %-6s mapping %s\n", a, an.Mappings[a])
		}
	}
	fmt.Printf("  communication: %s\n\n", an.Comm)
	fmt.Printf("out-of-core phase: candidate access reorganizations\n%s\n", res.Report())
	fmt.Printf("selected node + MP + I/O program:\n\n%s", res.Program.String())

	if *showBC {
		bc, err := bytecode.Compile(res.Program)
		if err != nil {
			fatal(err)
		}
		enc := bytecode.Encode(bc)
		fmt.Printf("\nbytecode (%d instructions, %d bytes encoded):\n\n%s",
			len(bc.Code), len(enc), bc.Disassemble())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ooc-compile:", err)
	os.Exit(1)
}

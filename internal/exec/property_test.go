package exec

// End-to-end property test: random mini-HPF FORALL programs, elementwise
// and shifted, are generated, compiled and executed out of core, and
// their results are compared against a direct in-core evaluation of the
// same statements.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// genStmt is one generated FORALL statement with its reference
// evaluator: eval computes an element of out's column k from at, which
// reads array a at row i and column k+off; lo and hi are the 0-based
// FORALL bounds.
type genStmt struct {
	out    string
	expr   string
	lo, hi int
	eval   func(at func(a string, off int) float64) float64
}

// genExpr builds a random expression over the given arrays. With shift
// set, every section takes a column offset in -2..2, appended to offs.
func genExpr(rng *rand.Rand, arrays []string, depth int, shift bool, offs *[]int) (string, func(func(string, int) float64) float64) {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0: // constant
			c := rng.Intn(9) + 1
			return fmt.Sprintf("%d", c), func(func(string, int) float64) float64 { return float64(c) }
		default: // array section
			a := arrays[rng.Intn(len(arrays))]
			off := 0
			if shift {
				off = rng.Intn(5) - 2
				*offs = append(*offs, off)
			}
			col := "k"
			if off != 0 {
				col = fmt.Sprintf("k%+d", off)
			}
			return fmt.Sprintf("%s(1:n,%s)", a, col), func(at func(string, int) float64) float64 { return at(a, off) }
		}
	}
	// Division is excluded: a random denominator may be zero.
	ops := []byte{'+', '-', '*'}
	op := ops[rng.Intn(len(ops))]
	ls, lf := genExpr(rng, arrays, depth-1, shift, offs)
	rs, rf := genExpr(rng, arrays, depth-1, shift, offs)
	eval := func(at func(string, int) float64) float64 {
		l, r := lf(at), rf(at)
		switch op {
		case '+':
			return l + r
		case '-':
			return l - r
		default:
			return l * r
		}
	}
	return fmt.Sprintf("(%s %c %s)", ls, op, rs), eval
}

// genArrays are the generated programs' arrays. Each name but x is x
// behind a prefix the compiler gives a buffer (the output slab, ghosts,
// halo slabs), so a lowering whose buffer names can coincide for two
// arrays puts two buffers in one slot and computes a wrong result.
var genArrays = []string{"x", "out_x", "ghost_x", "halo_x"}

// genProgram builds a random program of one to three FORALLs over the
// four genArrays on procs processors. An elementwise one runs every
// statement over 1..n at offset 0. A shifted one gives its sections
// column offsets in -2..2, keeps each statement's target off its own
// right-hand side, and picks bounds that keep every offset column inside
// 1..n.
func genProgram(rng *rand.Rand, n, procs int, shift bool) (string, []genStmt) {
	arrays := genArrays
	nStmts := rng.Intn(3) + 1
	var stmts []genStmt
	var body strings.Builder
	for s := 0; s < nStmts; s++ {
		out := arrays[rng.Intn(len(arrays))]
		ins := arrays
		if shift {
			ins = nil
			for _, a := range arrays {
				if a != out {
					ins = append(ins, a)
				}
			}
		}
		var offs []int
		expr, eval := genExpr(rng, ins, 3, shift, &offs)
		st := genStmt{out: out, expr: expr, lo: 0, hi: n - 1, eval: eval}
		if shift {
			lo, hi := 0, n-1
			for _, off := range offs {
				lo, hi = max(lo, -off), min(hi, n-1-off)
			}
			st.lo, st.hi = lo+rng.Intn(3), hi-rng.Intn(3)
		}
		stmts = append(stmts, st)
		fmt.Fprintf(&body, "FORALL (k=%d:%d)\n  %s(1:n,k) = %s\nend FORALL\n", st.lo+1, st.hi+1, out, expr)
	}
	src := fmt.Sprintf(`parameter (n=%d, nprocs=%d)
real %[3]s(n,n), %[4]s(n,n), %[5]s(n,n), %[6]s(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: %[3]s, %[4]s, %[5]s, %[6]s
%[7]send
`, n, procs, arrays[0], arrays[1], arrays[2], arrays[3], body.String())
	return src, stmts
}

func TestRandomEwiseProgramsMatchInCoreEvaluation(t *testing.T) {
	const n = 16
	fills := map[string]func(int, int) float64{
		"x":       func(i, j int) float64 { return float64(i%5 + j%3) },
		"out_x":   func(i, j int) float64 { return float64(2*(i%3) - j%4) },
		"ghost_x": func(i, j int) float64 { return float64(i%7 - 3) },
		"halo_x":  func(i, j int) float64 { return float64(j%6 + 1) },
	}
	for _, mode := range []struct {
		shift bool
		seed  int64
	}{{false, 20260704}, {true, 20261017}} {
		rng := rand.New(rand.NewSource(mode.seed))
		for trial := 0; trial < 40; trial++ {
			procs, mem := 4, n*8
			if mode.shift {
				// Slabs of one to three columns per array.
				procs, mem = []int{1, 2, 4}[rng.Intn(3)], n*4*(1+rng.Intn(3))
			}
			src, stmts := genProgram(rng, n, procs, mode.shift)
			res, err := compiler.CompileSource(src, compiler.Options{MemElems: mem})
			if err != nil {
				t.Fatalf("shift %v trial %d: compile failed: %v\nprogram:\n%s", mode.shift, trial, err, src)
			}
			out, err := Run(res.Program, sim.Delta(procs), Options{Fill: fills})
			if err != nil {
				t.Fatalf("shift %v trial %d: run failed: %v\nprogram:\n%s", mode.shift, trial, err, src)
			}

			// In-core reference: apply the statements in order to full
			// matrices; columns outside a statement's bounds keep their
			// contents, which are zero in an array the program never
			// reads (only inputs are filled).
			ref := map[string]*matrix.Matrix{}
			for _, spec := range res.Program.Arrays {
				ref[spec.Name] = matrix.New(n, n)
				if spec.Role == plan.In {
					ref[spec.Name].Fill(fills[spec.Name])
				}
			}
			for _, st := range stmts {
				next := ref[st.out].Clone()
				for j := st.lo; j <= st.hi; j++ {
					for i := 0; i < n; i++ {
						next.Set(i, j, st.eval(func(a string, off int) float64 { return ref[a].At(i, j+off) }))
					}
				}
				ref[st.out] = next
			}

			// Compare every array the program touched.
			touched := map[string]bool{}
			for _, st := range stmts {
				touched[st.out] = true
			}
			for name := range touched {
				got, err := out.ReadArray(name)
				if err != nil {
					t.Fatalf("shift %v trial %d: read %s: %v", mode.shift, trial, name, err)
				}
				if !matrix.Equal(got, ref[name]) {
					t.Fatalf("shift %v trial %d: array %s differs from in-core evaluation (maxdiff %g)\nprogram:\n%s",
						mode.shift, trial, name, matrix.MaxAbsDiff(got, ref[name]), src)
				}
			}
		}
	}
}

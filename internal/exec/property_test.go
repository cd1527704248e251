package exec

// End-to-end property test: random mini-HPF FORALL programs, elementwise
// and shifted, with row sections and in time loops, are generated,
// compiled and executed out of core, and
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

// genMode selects what a generated program may contain: shifted column
// references, row sections at row offsets (with shift), and a time loop
// around the statements.
type genMode struct {
	shift, rows, timeLoop bool
}

// genStmt is one generated FORALL statement with its reference
// evaluator: eval computes an element of out's column k, row i from at,
// which reads array a at row i+drow and column k+dcol; lo and hi are the
// 0-based FORALL bounds, rlo and rhi the target's row section.
type genStmt struct {
	out      string
	expr     string
	lo, hi   int
	rlo, rhi int
	eval     func(at func(a string, drow, dcol int) float64) float64
}

// genExpr builds a random expression over the given arrays, rendered for
// the target rows rlo..rhi. With shift set, every section takes a column
// offset in -2..2, and with rows set a row offset in -2..2 too, appended
// to offs as (row, column).
func genExpr(rng *rand.Rand, arrays []string, depth int, mode genMode, offs *[][2]int) (func(rlo, rhi int) string, func(func(string, int, int) float64) float64) {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0: // constant
			c := rng.Intn(9) + 1
			return func(int, int) string { return fmt.Sprintf("%d", c) },
				func(func(string, int, int) float64) float64 { return float64(c) }
		default: // array section
			a := arrays[rng.Intn(len(arrays))]
			off, drow := 0, 0
			if mode.shift {
				off = rng.Intn(5) - 2
			}
			if mode.rows {
				drow = rng.Intn(5) - 2
			}
			if mode.shift {
				*offs = append(*offs, [2]int{drow, off})
			}
			col := "k"
			if off != 0 {
				col = fmt.Sprintf("k%+d", off)
			}
			render := func(int, int) string { return fmt.Sprintf("%s(1:n,%s)", a, col) }
			if mode.rows {
				render = func(rlo, rhi int) string { return fmt.Sprintf("%s(%d:%d,%s)", a, rlo+drow+1, rhi+drow+1, col) }
			}
			return render, func(at func(string, int, int) float64) float64 { return at(a, drow, off) }
		}
	}
	// Division is excluded: a random denominator may be zero.
	ops := []byte{'+', '-', '*'}
	op := ops[rng.Intn(len(ops))]
	ls, lf := genExpr(rng, arrays, depth-1, mode, offs)
	rs, rf := genExpr(rng, arrays, depth-1, mode, offs)
	eval := func(at func(string, int, int) float64) float64 {
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
	return func(rlo, rhi int) string { return fmt.Sprintf("(%s %c %s)", ls(rlo, rhi), op, rs(rlo, rhi)) }, eval
}

// genArrays are the generated programs' arrays. Each name but x is x
// behind a prefix the compiler gives a buffer (the output slab, ghosts,
// halo slabs), so a lowering whose buffer names can coincide for two
// arrays puts two buffers in one slot and computes a wrong result.
var genArrays = []string{"x", "out_x", "ghost_x", "halo_x"}

// genProgram builds a random program of one to three FORALLs over the
// four genArrays on procs processors, and the trip count of the time loop
// around them (1 without one). An elementwise one runs every statement
// over 1..n at offset 0. A shifted one gives its sections column offsets
// in -2..2, keeps each statement's target off its own right-hand side,
// and picks bounds that keep every offset column inside 1..n; with row
// sections, the target's rows are picked the same way for the row
// offsets. A time loop runs 1 to 3 trips.
func genProgram(rng *rand.Rand, n, procs int, mode genMode) (string, []genStmt, int) {
	arrays := genArrays
	nStmts := rng.Intn(3) + 1
	var stmts []genStmt
	var body strings.Builder
	for s := 0; s < nStmts; s++ {
		out := arrays[rng.Intn(len(arrays))]
		ins := arrays
		if mode.shift {
			ins = nil
			for _, a := range arrays {
				if a != out {
					ins = append(ins, a)
				}
			}
		}
		var offs [][2]int
		render, eval := genExpr(rng, ins, 3, mode, &offs)
		st := genStmt{out: out, lo: 0, hi: n - 1, rlo: 0, rhi: n - 1, eval: eval}
		if mode.shift {
			lo, hi := 0, n-1
			for _, off := range offs {
				lo, hi = max(lo, -off[1]), min(hi, n-1-off[1])
			}
			st.lo, st.hi = lo+rng.Intn(3), hi-rng.Intn(3)
		}
		rows := "1:n"
		if mode.rows {
			lo, hi := 0, n-1
			for _, off := range offs {
				lo, hi = max(lo, -off[0]), min(hi, n-1-off[0])
			}
			st.rlo, st.rhi = lo+rng.Intn(3), hi-rng.Intn(3)
			rows = fmt.Sprintf("%d:%d", st.rlo+1, st.rhi+1)
		}
		st.expr = render(st.rlo, st.rhi)
		stmts = append(stmts, st)
		fmt.Fprintf(&body, "FORALL (k=%d:%d)\n  %s(%s,k) = %s\nend FORALL\n", st.lo+1, st.hi+1, out, rows, st.expr)
	}
	trips, text := 1, body.String()
	if mode.timeLoop {
		trips = 1 + rng.Intn(3)
		text = fmt.Sprintf("do it=1, %d\n%send do\n", trips, text)
	}
	src := fmt.Sprintf(`parameter (n=%d, nprocs=%d)
real %[3]s(n,n), %[4]s(n,n), %[5]s(n,n), %[6]s(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: %[3]s, %[4]s, %[5]s, %[6]s
%[7]send
`, n, procs, arrays[0], arrays[1], arrays[2], arrays[3], text)
	return src, stmts, trips
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
		genMode
		seed int64
	}{
		{genMode{}, 20260704},
		{genMode{shift: true}, 20261017},
		{genMode{shift: true, rows: true}, 20261018},
		{genMode{shift: true, rows: true, timeLoop: true}, 20261019},
		{genMode{timeLoop: true}, 20261020},
	} {
		rng := rand.New(rand.NewSource(mode.seed))
		for trial := 0; trial < 40; trial++ {
			procs, mem := 4, n*8
			if mode.shift {
				// Slabs of one to three columns per array.
				procs, mem = []int{1, 2, 4}[rng.Intn(3)], n*4*(1+rng.Intn(3))
			}
			src, stmts, trips := genProgram(rng, n, procs, mode.genMode)
			res, err := compiler.CompileSource(src, compiler.Options{MemElems: mem})
			if err != nil {
				t.Fatalf("%+v trial %d: compile failed: %v\nprogram:\n%s", mode.genMode, trial, err, src)
			}
			out, err := Run(res.Program, sim.Delta(procs), Options{Fill: fills})
			if err != nil {
				t.Fatalf("%+v trial %d: run failed: %v\nprogram:\n%s", mode.genMode, trial, err, src)
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
			for range trips {
				for _, st := range stmts {
					next := ref[st.out].Clone()
					for j := st.lo; j <= st.hi; j++ {
						for i := st.rlo; i <= st.rhi; i++ {
							next.Set(i, j, st.eval(func(a string, drow, dcol int) float64 { return ref[a].At(i+drow, j+dcol) }))
						}
					}
					ref[st.out] = next
				}
			}

			// Compare every array the program touched.
			touched := map[string]bool{}
			for _, st := range stmts {
				touched[st.out] = true
			}
			for name := range touched {
				got, err := out.ReadArray(name)
				if err != nil {
					t.Fatalf("%+v trial %d: read %s: %v", mode.genMode, trial, name, err)
				}
				if !matrix.Equal(got, ref[name]) {
					t.Fatalf("%+v trial %d: array %s differs from in-core evaluation (maxdiff %g)\nprogram:\n%s",
						mode.genMode, trial, name, matrix.MaxAbsDiff(got, ref[name]), src)
				}
			}
		}
	}
}

package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// The dispatch loop runs a loop whose whole body is one AXPY as a single
// kernel (interp.run). These tests pin the kernel to the loop it
// replaces: the same plan with the loop's body padded by an instruction
// that does nothing to the sum is not recognised, goes through
// LOOP / AXPY / … / END_LOOP one instruction at a time, and must give
// the same bits and the same statistics.

// innerShapes are the bodies a GAXPY's innermost loop is rebuilt with.
// terms is how many times each trip's product enters the sum.
var innerShapes = []struct {
	name  string
	terms int
	body  func(ax *plan.Axpy) []plan.Node
}{
	{"kernel", 1, func(ax *plan.Axpy) []plan.Node { return []plan.Node{ax} }},
	// A bare AXPY: the second vector never meets the sum.
	{"padded", 1, func(ax *plan.Axpy) []plan.Node {
		return []plan.Node{ax, &plan.ZeroVec{Vec: "idle", RowsLike: ax.A}}
	}},
	{"two", 2, func(ax *plan.Axpy) []plan.Node { return []plan.Node{ax, ax} }},
}

// gaxpyWithInner compiles the GAXPY and rebuilds every innermost loop
// (variable i, body one Axpy): body as given, and count when non-nil.
func gaxpyWithInner(t *testing.T, opts compiler.Options, body func(*plan.Axpy) []plan.Node, count *plan.CountExpr) *plan.Program {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	var walk func(nodes []plan.Node)
	walk = func(nodes []plan.Node) {
		for _, n := range nodes {
			l, ok := n.(*plan.Loop)
			if !ok {
				continue
			}
			if l.Var != "i" {
				walk(l.Body)
				continue
			}
			if len(l.Body) != 1 {
				t.Fatalf("innermost loop holds %d nodes", len(l.Body))
			}
			found++
			l.Body = body(l.Body[0].(*plan.Axpy))
			if count != nil {
				l.Count = *count
			}
		}
	}
	walk(res.Program.Body)
	if found == 0 {
		t.Fatal("the compiled GAXPY has no innermost loop over i")
	}
	return res.Program
}

// roughFills are inputs whose products and sums all round: a change in
// the order of any two additions shows in the bits.
func roughFills() map[string]func(int, int) float64 {
	return map[string]func(int, int) float64{
		"a": func(i, j int) float64 { return math.Sin(float64(3*i+7*j+1)) * 1e3 },
		"b": func(i, j int) float64 { return math.Cos(float64(5*i+2*j+1)) / 7 },
	}
}

// runC runs the program and returns C, closing the run.
func runC(t *testing.T, p *plan.Program, fills map[string]func(int, int) float64) (*matrix.Matrix, *Result) {
	t.Helper()
	out, err := Run(p, sim.Delta(p.Procs), Options{Fill: fills})
	if err != nil {
		t.Fatal(err)
	}
	c, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	// Closed once the test is done with the result's per-array
	// statistics, which Close hands to the plan's next run.
	t.Cleanup(func() {
		if err := out.Close(); err != nil {
			t.Error(err)
		}
	})
	return c, out
}

func sameBits(t *testing.T, what string, got, want *matrix.Matrix) {
	t.Helper()
	for k := range want.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("%s: element %d is %v, want %v", what, k, got.Data[k], want.Data[k])
		}
	}
}

// TestLoneAxpyLoopTripCounts cuts the row-slab GAXPY's innermost loop to
// 0..9 trips — every remainder of the four-trip kernel, and the loop that
// never runs. On exact inputs every shape must equal the dense partial
// product; on rounding inputs the kernel and the instruction-at-a-time
// loop must agree to the bit, in C and in every rank's statistics.
func TestLoneAxpyLoopTripCounts(t *testing.T) {
	const n, procs = 40, 4
	const local = n / procs // local columns of A = local rows of B
	opts := compiler.Options{N: n, Procs: procs, MemElems: 300, Force: "row-slab"}
	for trips := 0; trips < local; trips++ {
		count := &plan.CountExpr{Lit: trips}
		for _, shape := range innerShapes {
			c, _ := runC(t, gaxpyWithInner(t, opts, shape.body, count), sweepFills())
			for gj := 0; gj < n; gj++ {
				for gi := 0; gi < n; gi++ {
					var want float64
					for r := 0; r < procs; r++ {
						for i := 0; i < trips; i++ {
							want += gaxpy.FillA(gi, r*local+i) * gaxpy.FillB(r*local+i, gj)
						}
					}
					if got := c.At(gi, gj); got != float64(shape.terms)*want {
						t.Fatalf("%d trips, %s: C(%d,%d) = %g, want %g", trips, shape.name, gi, gj, got, float64(shape.terms)*want)
					}
				}
			}
		}
		kernel, kout := runC(t, gaxpyWithInner(t, opts, innerShapes[0].body, count), roughFills())
		padded, pout := runC(t, gaxpyWithInner(t, opts, innerShapes[1].body, count), roughFills())
		sameBits(t, fmt.Sprintf("%d trips: kernel against dispatched loop", trips), kernel, padded)
		for r := range kout.Stats.Procs {
			if kout.Stats.Procs[r] != pout.Stats.Procs[r] {
				t.Errorf("%d trips: rank %d statistics differ:\nkernel     %+v\ndispatched %+v", trips, r, kout.Stats.Procs[r], pout.Stats.Procs[r])
			}
		}
	}
}

// TestLoneAxpyLoopColumnSlabAddressing runs the column-slab translation,
// whose AXPY reads b at row na·width(a) + i, over slab widths that leave
// every remainder (the last slab of A is narrower than the rest): the
// full product on exact inputs, and the kernel against the dispatched
// loop on rounding ones.
func TestLoneAxpyLoopColumnSlabAddressing(t *testing.T) {
	const n, procs = 32, 4
	for _, width := range []int{1, 2, 3, 5, 6, 7, 8} {
		build := func(body func(*plan.Axpy) []plan.Node) *plan.Program {
			p := gaxpyWithInner(t, compiler.Options{N: n, Procs: procs, MemElems: 400, Force: "column-slab"}, body, nil)
			for k := range p.Arrays {
				if p.Arrays[k].Name == "a" {
					p.Arrays[k].SlabElems = n * width
				}
			}
			return p
		}
		exact, out := runC(t, build(innerShapes[0].body), sweepFills())
		if got, want := out.MaxArrayIO("a").SlabReads, int64(n*((n/procs+width-1)/width)); got != want {
			t.Fatalf("width %d: %d slab reads of A, want %d (every slab, for every column of C)", width, got, want)
		}
		want := gaxpy.CExpected(n)
		for gj := 0; gj < n; gj++ {
			for gi := 0; gi < n; gi++ {
				if exact.At(gi, gj) != want(gi, gj) {
					t.Fatalf("width %d: C(%d,%d) = %g, want %g", width, gi, gj, exact.At(gi, gj), want(gi, gj))
				}
			}
		}
		kernel, _ := runC(t, build(innerShapes[0].body), roughFills())
		padded, _ := runC(t, build(innerShapes[1].body), roughFills())
		sameBits(t, fmt.Sprintf("width %d: kernel against dispatched loop", width), kernel, padded)
	}
}

// residentInterp is one rank's interpreter with a slab pair resident
// (A rows x k, B k x bcols) and nothing else — what the inner loops of a
// GAXPY stream run against. Variables are m, i; buffers icla_a, icla_b;
// the vector is temp.
func residentInterp(p *mp.Proc, rows, k, bcols int, phantom bool, code []bytecode.Instr) *interp {
	slab := func(r, c int, seed float64) *oocarray.ICLA {
		s := &oocarray.ICLA{Rows: r, Cols: c, Data: make([]float64, r*c)}
		for j := range s.Data {
			s.Data[j] = math.Sin(seed + float64(j))
		}
		return s
	}
	return &interp{
		code: &bytecode.Program{Code: code, VarNames: []string{"m", "i"},
			BufNames: []string{"icla_a", "icla_b"}, VecNames: []string{"temp"}},
		proc: p, phantom: phantom,
		tables: tables{
			vars:   make([]int, 2),
			bufs:   []*oocarray.ICLA{slab(rows, k, 1), slab(k, bcols, 2)},
			vecs:   make([][]float64, 1),
			frames: make([]frame, 0, loopDepth(code)),
		},
	}
}

// rowSlabAxpy is temp += icla_a(:,i)·icla_b(i,m) over residentInterp's
// slots.
var rowSlabAxpy = bytecode.Instr{Op: bytecode.OpAxpy, A: 0, B: 0, C: 1, D: 1, E: -1, F: -1, G: 1, H: 0}

// TestLoneAxpyLoopLeavesVariableAtLastTrip: END_LOOP leaves a loop's
// variable at its last trip's value and a loop of no trips never assigns
// it; the kernel must do the same, with and without the arithmetic. The
// two-AXPY loop beside it is the per-instruction route.
func TestLoneAxpyLoopLeavesVariableAtLastTrip(t *testing.T) {
	const sentinel = 5
	for _, phantom := range []bool{false, true} {
		for trips := int32(0); trips < 10; trips++ {
			lone := []bytecode.Instr{
				{Op: bytecode.OpLoop, A: 1, B: bytecode.CountLit, C: trips, D: 3},
				rowSlabAxpy,
				{Op: bytecode.OpEndLoop, A: 0},
			}
			two := []bytecode.Instr{
				{Op: bytecode.OpLoop, A: 1, B: bytecode.CountLit, C: trips, D: 4},
				rowSlabAxpy, rowSlabAxpy,
				{Op: bytecode.OpEndLoop, A: 0},
			}
			for name, code := range map[string][]bytecode.Instr{"lone": lone, "two": two} {
				_, err := mp.Run(sim.Delta(1), func(p *mp.Proc) error {
					in := residentInterp(p, 6, 12, 3, phantom, code)
					in.vecs[0] = make([]float64, 6)
					in.vars[0], in.vars[1] = 2, sentinel
					if err := in.run(0, 0); err != nil {
						return err
					}
					want := int(trips) - 1
					if trips == 0 {
						want = sentinel
					}
					if in.vars[0] != 2 || in.vars[1] != want {
						return fmt.Errorf("variables (m,i) = %v, want (2,%d)", in.vars, want)
					}
					return nil
				})
				if err != nil {
					t.Errorf("phantom %v, %d trips, %s: %v", phantom, trips, name, err)
				}
			}
		}
	}
}

// kernelsOnlyProgram loads one slab pair per rank and then runs kernels
// for (practically) ever, with no message and no file operation between
// them: a run only a cancellation ends, and which it can only find
// inside or between kernels.
func kernelsOnlyProgram(n, procs int) *plan.Program {
	return &plan.Program{
		Name: "kernels", N: n, Procs: procs, Strategy: "none",
		Arrays: []plan.ArraySpec{
			{Name: "a", Rows: n, Cols: n, RowScheme: dist.Collapsed, ColScheme: dist.Block, SlabElems: n * n, SlabDim: oocarray.ByRow},
			{Name: "b", Rows: n, Cols: n, RowScheme: dist.Block, ColScheme: dist.Collapsed, SlabElems: n * n, SlabDim: oocarray.ByColumn},
		},
		Body: []plan.Node{&plan.Loop{Var: "l", Count: plan.CountExpr{SlabsOf: "a"}, Body: []plan.Node{
			&plan.ReadSlab{Array: "a", Index: "l", Buf: "icla_a"},
			&plan.ReadSlab{Array: "b", Index: "l", Buf: "icla_b"},
			&plan.Loop{Var: "m", Count: plan.CountExpr{Lit: math.MaxInt32}, Body: []plan.Node{
				&plan.ZeroVec{Vec: "temp", RowsLike: "icla_a"},
				&plan.Loop{Var: "i", Count: plan.CountExpr{ColsOf: "icla_a"}, Body: []plan.Node{
					&plan.Axpy{Vec: "temp", A: "icla_a", ACol: "i", B: "icla_b", BRowPlus: "i", BCol: "l"},
				}},
			}},
		}}},
	}
}

// ranksInKernel counts the goroutines inside the AXPY handler, read off
// the goroutine dump.
func ranksInKernel() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "exec.(*interp).axpy(")
}

// TestCancelInsideKernels cancels the context while every rank is inside
// a kernel. A kernel is one op: each rank finishes the one it is in,
// stops at the boundary after it and says so, and the unwinding returns
// every buffer.
func TestCancelInsideKernels(t *testing.T) {
	const n, procs = 128, 4
	p := kernelsOnlyProgram(n, procs)
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawAll := make(chan bool, 1)
	go func() {
		defer cancel()
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if ranksInKernel() == procs {
				sawAll <- true
				return
			}
		}
		sawAll <- false
	}()
	_, err := RunCtx(ctx, p, sim.Delta(procs), Options{Fill: sweepFills()})
	if !<-sawAll {
		t.Fatal("never saw every rank inside a kernel: the cancel did not land where the test means it to")
	}
	checkCancelled(t, "cancel inside kernels", err)
	if got := strings.Count(err.Error(), "cancelled at op boundary"); got != procs {
		t.Fatalf("%d of %d ranks stopped at an op boundary: %v", got, procs, err)
	}
}

// BenchmarkGaxpyInnerLoop is the layer the lone-AXPY kernel changes, on
// its own: one rank, one resident slab pair (55 x 64 of A, 64 x 4 of B —
// gaxpy_real's shapes), and the m loop of the row-slab stream without its
// reduction — per column of B a ZERO_VEC and the 64-trip AXPY loop, four
// columns a pass — with the arithmetic and, phantom, with the charge alone.
func BenchmarkGaxpyInnerLoop(b *testing.B) {
	const rows, k, bcols = 55, 64, 4
	code := []bytecode.Instr{
		{Op: bytecode.OpLoop, A: 0, B: bytecode.CountCols, C: 1, D: 6},
		{Op: bytecode.OpZeroVec, A: 0, B: 0},
		{Op: bytecode.OpLoop, A: 1, B: bytecode.CountCols, C: 0, D: 5},
		rowSlabAxpy,
		{Op: bytecode.OpEndLoop, A: 2},
		{Op: bytecode.OpEndLoop, A: 0},
	}
	for _, phantom := range []bool{false, true} {
		name := "real"
		if phantom {
			name = "phantom"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			_, err := mp.Run(sim.Delta(1), func(p *mp.Proc) error {
				in := residentInterp(p, rows, k, bcols, phantom, code)
				defer func() { bufpool.PutF64(in.vecs[0]) }()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if err := in.run(0, 0); err != nil {
						return err
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bcols*k), "ns/trip")
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

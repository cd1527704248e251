package exec

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// ioStatsEqual compares counters exactly and accumulated seconds with a
// tolerance (summation order differs between implementations).
func ioStatsEqual(a, b trace.IOStats) bool {
	sa, sb := a.Seconds, b.Seconds
	a.Seconds, b.Seconds = 0, 0
	d := sa - sb
	return a == b && d < 1e-9 && d > -1e-9
}

// compileAndRun compiles the Figure 3 program and executes it.
func compileAndRun(t *testing.T, opts compiler.Options, eopts Options) (*compiler.Result, *Result) {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource, opts)
	if err != nil {
		t.Fatal(err)
	}
	if eopts.Fill == nil {
		eopts.Fill = map[string]func(int, int) float64{
			"a": gaxpy.FillA,
			"b": gaxpy.FillB,
		}
	}
	mach := sim.Delta(res.Program.Procs)
	out, err := Run(res.Program, mach, eopts)
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

func verifyC(t *testing.T, out *Result, n int) {
	t.Helper()
	c, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	want := gaxpy.CExpected(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if c.At(i, j) != want(i, j) {
				t.Fatalf("C(%d,%d) = %g, want %g", i, j, c.At(i, j), want(i, j))
			}
		}
	}
}

func TestCompiledRowSlabProducesCorrectResult(t *testing.T) {
	for _, tc := range []struct{ n, p, mem int }{
		{16, 2, 100},
		{32, 4, 200},
		{32, 8, 300},
		{48, 4, 500},
	} {
		t.Run(fmt.Sprintf("n=%d p=%d", tc.n, tc.p), func(t *testing.T) {
			res, out := compileAndRun(t,
				compiler.Options{N: tc.n, Procs: tc.p, MemElems: tc.mem}, Options{})
			if res.Program.Strategy != "row-slab" {
				t.Fatalf("strategy %s", res.Program.Strategy)
			}
			verifyC(t, out, tc.n)
		})
	}
}

func TestCompiledColumnSlabProducesCorrectResult(t *testing.T) {
	_, out := compileAndRun(t,
		compiler.Options{N: 32, Procs: 4, MemElems: 200, Force: "column-slab"}, Options{})
	verifyC(t, out, 32)
}

func TestPhantomExecutionMatchesReal(t *testing.T) {
	copts := compiler.Options{N: 32, Procs: 4, MemElems: 300}
	_, real := compileAndRun(t, copts, Options{})
	_, ph := compileAndRun(t, copts, Options{Phantom: true})
	// Bit for bit, rank by rank: a phantom run's reductions carry counts
	// (mp.ReduceElided) and must cost exactly what the payloads cost.
	for r := range real.Stats.Procs {
		if real.Stats.Procs[r] != ph.Stats.Procs[r] {
			t.Errorf("rank %d: phantom statistics differ:\nphantom %+v\nreal    %+v", r, ph.Stats.Procs[r], real.Stats.Procs[r])
		}
	}
	if rt, pt := real.Stats.ElapsedSeconds(), ph.Stats.ElapsedSeconds(); rt != pt {
		t.Errorf("phantom elapsed %v vs real %v", pt, rt)
	}
	if _, err := ph.ReadArray("c"); err == nil {
		t.Error("ReadArray on phantom run should fail")
	}
}

func TestUnfilledInputsAreZero(t *testing.T) {
	// Inputs without a Fill entry are zero, so C must be zero.
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 16, Procs: 2, MemElems: 100})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Program, sim.Delta(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("zero inputs must give zero output")
		}
	}
}

func TestReadArrayUnknown(t *testing.T) {
	_, out := compileAndRun(t, compiler.Options{N: 16, Procs: 2, MemElems: 100}, Options{})
	if _, err := out.ReadArray("nope"); err == nil {
		t.Error("unknown array should fail")
	}
}

// withRuntime returns a copy of p whose runs use the runtime switches rt.
func withRuntime(p *plan.Program, rt oocarray.Options) *plan.Program {
	q := *p
	q.Runtime = rt
	return &q
}

func TestRuntimeOptionsSieveAndPrefetch(t *testing.T) {
	// Sieving + prefetching still compute the right answer.
	res, err := compiler.CompileSource(hpf.GaxpySource,
		compiler.Options{N: 32, Procs: 4, MemElems: 300, Runtime: oocarray.Options{Sieve: true, Prefetch: true}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Program, sim.Delta(4), Options{
		Fill: map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB},
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyC(t, out, 32)
}

func TestStreamedReadsPrefetch(t *testing.T) {
	// With Stream-marked reads and the plan's Runtime.Prefetch, the interpreter
	// overlaps slab fetches with computation: lower simulated time, same
	// result, same I/O counts.
	copts := compiler.Options{N: 64, Procs: 4, MemElems: 600}
	res, err := compiler.CompileSource(hpf.GaxpySource, copts)
	if err != nil {
		t.Fatal(err)
	}
	fill := map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}
	plain, err := Run(res.Program, sim.Delta(4), Options{Fill: fill})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Run(withRuntime(res.Program, oocarray.Options{Prefetch: true}), sim.Delta(4), Options{Fill: fill})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Stats.ElapsedSeconds() >= plain.Stats.ElapsedSeconds() {
		t.Errorf("prefetch did not reduce simulated time: %.3f vs %.3f",
			pre.Stats.ElapsedSeconds(), plain.Stats.ElapsedSeconds())
	}
	a, err := plain.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	b, err := pre.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(a, b) {
		t.Error("prefetch changed the result")
	}
	pi, qi := plain.Stats.TotalIO(), pre.Stats.TotalIO()
	if pi.SlabReads != qi.SlabReads || pi.BytesRead != qi.BytesRead {
		t.Errorf("prefetch changed I/O counts: %+v vs %+v", pi, qi)
	}
}

func TestStreamHintPrinted(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 64, Procs: 4, MemElems: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Program.String(), "sequential: may prefetch") {
		t.Error("program text missing stream hints")
	}
}

func TestSpanTimelineRecorded(t *testing.T) {
	tr := trace.NewTracer(4)
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 32, Procs: 4, MemElems: 300})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Program, sim.Delta(4), Options{Phantom: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]bool{}
	var ioSeconds float64
	for _, s := range tr.Spans() {
		kinds[s.Kind] = true
		if s.Kind == trace.KindSlabRead || s.Kind == trace.KindSlabWrite {
			ioSeconds += s.Dur
		}
		if !s.Deferred && s.End() > out.Stats.ElapsedSeconds()+1e-9 {
			t.Fatalf("span past the end of the run: %+v", s)
		}
	}
	for _, want := range []trace.Kind{trace.KindCompute, trace.KindSlabRead, trace.KindSlabWrite, trace.KindSend} {
		if !kinds[want] {
			t.Errorf("no %q spans recorded (kinds: %v)", want, kinds)
		}
	}
	// The spans' I/O time must equal the accounted I/O seconds.
	if acc := out.Stats.TotalIO().Seconds; ioSeconds < acc-1e-6 || ioSeconds > acc+1e-6 {
		t.Errorf("span io time %.6f != accounted %.6f", ioSeconds, acc)
	}
	if !strings.Contains(tr.Gantt(4, 80), "p0") {
		t.Error("gantt should render lanes")
	}
	// And reconcile exactly — counts, bytes and seconds to the digit.
	if err := trace.Reconcile(tr.Spans(), out.Stats, out.PerArray); err != nil {
		t.Fatal(err)
	}
}

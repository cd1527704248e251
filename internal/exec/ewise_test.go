package exec

import (
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

func fillX(i, j int) float64 { return float64(i%9 + j%4) }
func fillY(i, j int) float64 { return float64(3*(i%5) - j%7) }

// The EwiseSource program computes z = 3x + y - 1 then w = z*x/2.
func wantZ(i, j int) float64 { return 3*fillX(i, j) + fillY(i, j) - 1 }
func wantW(i, j int) float64 { return wantZ(i, j) * fillX(i, j) / 2 }

func runEwiseProgram(t *testing.T, n, procs int, force string, phantom bool) *Result {
	t.Helper()
	res, err := compiler.CompileSource(hpf.EwiseSource, compiler.Options{
		N: n, Procs: procs, MemElems: n * 8, Force: force,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Program, sim.Delta(procs), Options{
		Phantom: phantom,
		Fill: map[string]func(int, int) float64{
			"x": fillX,
			"y": fillY,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEwiseExecutionCorrect(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{16, 2}, {32, 4}, {48, 4}} {
		out := runEwiseProgram(t, tc.n, tc.p, "", false)
		z, err := out.ReadArray("z")
		if err != nil {
			t.Fatal(err)
		}
		w, err := out.ReadArray("w")
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < tc.n; j++ {
			for i := 0; i < tc.n; i++ {
				if z.At(i, j) != wantZ(i, j) {
					t.Fatalf("n=%d p=%d: z(%d,%d) = %g, want %g", tc.n, tc.p, i, j, z.At(i, j), wantZ(i, j))
				}
				if w.At(i, j) != wantW(i, j) {
					t.Fatalf("n=%d p=%d: w(%d,%d) = %g, want %g", tc.n, tc.p, i, j, w.At(i, j), wantW(i, j))
				}
			}
		}
	}
}

func TestEwiseRowSlabSameResult(t *testing.T) {
	col := runEwiseProgram(t, 32, 4, "column-slab", false)
	row := runEwiseProgram(t, 32, 4, "row-slab", false)
	wc, err := col.ReadArray("w")
	if err != nil {
		t.Fatal(err)
	}
	wr, err := row.ReadArray("w")
	if err != nil {
		t.Fatal(err)
	}
	for i := range wc.Data {
		if wc.Data[i] != wr.Data[i] {
			t.Fatal("strategies disagree on the result")
		}
	}
	// The forced row-slab plan must cost more simulated time (same data,
	// more requests).
	if row.Stats.ElapsedSeconds() <= col.Stats.ElapsedSeconds() {
		t.Errorf("row-slab %.3f should be slower than column-slab %.3f",
			row.Stats.ElapsedSeconds(), col.Stats.ElapsedSeconds())
	}
}

func TestEwisePhantomMatchesReal(t *testing.T) {
	real := runEwiseProgram(t, 32, 4, "", false)
	ph := runEwiseProgram(t, 32, 4, "", true)
	if r, p := real.Stats.TotalIO(), ph.Stats.TotalIO(); !ioStatsEqual(r, p) {
		t.Errorf("phantom IO differs: %+v vs %+v", p, r)
	}
	rt, pt := real.Stats.ElapsedSeconds(), ph.Stats.ElapsedSeconds()
	if d := rt - pt; d > 1e-9 || d < -1e-9 {
		t.Errorf("phantom elapsed %.6f vs real %.6f", pt, rt)
	}
}

func TestEwiseIOAccounting(t *testing.T) {
	// Every array is streamed exactly once per statement that touches
	// it: x twice (both statements), y once, z written once + read once,
	// w written once. Column slabs with MemElems=n*8 over 4 arrays give
	// 2-column slabs; per statement the loop runs localCols/2 times.
	const n, p = 32, 4
	out := runEwiseProgram(t, n, p, "", false)
	io := out.Stats.TotalIO()
	localCols := n / p
	slabsPerArray := int64(localCols / 2)
	// Reads: stmt1 (x, y) + stmt2 (z, x) = 4 array streams.
	if want := 4 * slabsPerArray * int64(p); io.SlabReads != want {
		t.Errorf("slab reads = %d, want %d", io.SlabReads, want)
	}
	// Writes: z and w once each.
	if want := 2 * slabsPerArray * int64(p); io.SlabWrites != want {
		t.Errorf("slab writes = %d, want %d", io.SlabWrites, want)
	}
	// Column slabs are contiguous: requests == slab transfers.
	if io.Requests() != io.SlabReads+io.SlabWrites {
		t.Errorf("requests = %d, transfers = %d", io.Requests(), io.SlabReads+io.SlabWrites)
	}
}

// TestCompiledCountsMatchEquations validates Equations 3-6 on the
// compiled pipeline (the hand-coded check lives in internal/gaxpy).
func TestCompiledCountsMatchEquations(t *testing.T) {
	const n, p, ratio = 128, 4, 8
	ocla := n * n / p
	slab := ocla / ratio
	// Pin the slab sizes by searching: force equal A/B splits via even
	// policy with exactly 2*slab + n memory.
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: n, Procs: p, MemElems: 2*slab + n, Policy: compiler.PolicyEven,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.Program.Array("a")
	if a.SlabElems != slab {
		t.Fatalf("even policy gave slab %d, want %d", a.SlabElems, slab)
	}
	out, err := Run(res.Program, sim.Delta(p), Options{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	ioA := out.MaxArrayIO("a")
	elemSize := int64(sim.Delta(p).ElemSize)
	if want := int64(n) * int64(n) / (int64(slab) * int64(p)); ioA.SlabReads != want {
		t.Errorf("compiled row-slab T_fetch(A) = %d, eq5 wants %d", ioA.SlabReads, want)
	}
	if want := int64(n) * int64(n) / int64(p) * elemSize; ioA.BytesRead != want {
		t.Errorf("compiled row-slab T_data(A) = %d bytes, eq6 wants %d", ioA.BytesRead, want)
	}
	// B is re-read once per A slab.
	ioB := out.MaxArrayIO("b")
	if want := int64(ocla) * elemSize * int64(ratio); ioB.BytesRead != want {
		t.Errorf("compiled B bytes = %d, want %d", ioB.BytesRead, want)
	}
	// C written exactly once.
	ioC := out.MaxArrayIO("c")
	if want := int64(ocla) * elemSize; ioC.BytesWritten != want {
		t.Errorf("compiled C bytes = %d, want %d", ioC.BytesWritten, want)
	}
}

// gridEwiseSource distributes both array dimensions over a 2x2 processor
// grid (HPF "PROCESSORS pr(2,2)").
const gridEwiseSource = `parameter (n=16, pr1=2, pr2=2)
real x(n,n), y(n,n), z(n,n)
!hpf$ processors pr(pr1, pr2)
!hpf$ template d(n, n)
!hpf$ distribute d(block, block) on pr
!hpf$ align (:,:) with d :: x, y, z
FORALL (k=1:n)
  z(1:n,k) = 2*x(1:n,k) + y(1:n,k)
end FORALL
end
`

func TestEwiseOnProcessorGrid(t *testing.T) {
	res, err := compiler.CompileSource(gridEwiseSource, compiler.Options{MemElems: 16 * 12})
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if len(an.GridShape) != 2 || an.GridShape[0] != 2 || an.GridShape[1] != 2 {
		t.Fatalf("grid shape = %v", an.GridShape)
	}
	if an.Procs != 4 {
		t.Fatalf("procs = %d", an.Procs)
	}
	m := an.Mappings["x"]
	if m.Grid == nil || m.LocalShape(3)[0] != 8 || m.LocalShape(3)[1] != 8 {
		t.Fatalf("grid mapping wrong: %v shape %v", m.Grid, m.LocalShape(3))
	}
	out, err := Run(res.Program, sim.Delta(4), Options{
		Fill: map[string]func(int, int) float64{"x": fillX, "y": fillY},
	})
	if err != nil {
		t.Fatal(err)
	}
	z, err := out.ReadArray("z")
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			if want := 2*fillX(i, j) + fillY(i, j); z.At(i, j) != want {
				t.Fatalf("grid z(%d,%d) = %g, want %g", i, j, z.At(i, j), want)
			}
		}
	}
}

func TestGaxpyRejectsProcessorGrid(t *testing.T) {
	src := strings.Replace(hpf.GaxpySource,
		"!hpf$ processors pr(nprocs)", "!hpf$ processors pr(2, 2)", 1)
	src = strings.Replace(src, "!hpf$ template d(n)", "!hpf$ template d(n, n)", 1)
	src = strings.Replace(src, "!hpf$ distribute d(block) on pr", "!hpf$ distribute d(block, block) on pr", 1)
	if _, err := compiler.CompileSource(src, compiler.Options{MemElems: 1 << 12}); err == nil {
		t.Error("GAXPY over a 2-D grid should be rejected (reduction pattern is 1-D)")
	}
}

func TestWriteBehindThroughRuntime(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 64, Procs: 4, MemElems: 600})
	if err != nil {
		t.Fatal(err)
	}
	fill := map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}
	plain, err := Run(res.Program, sim.Delta(4), Options{Fill: fill})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := Run(withRuntime(res.Program, oocarray.Options{WriteBehind: true}), sim.Delta(4), Options{Fill: fill})
	if err != nil {
		t.Fatal(err)
	}
	if wb.Stats.ElapsedSeconds() >= plain.Stats.ElapsedSeconds() {
		t.Errorf("write-behind did not reduce simulated time: %.3f vs %.3f",
			wb.Stats.ElapsedSeconds(), plain.Stats.ElapsedSeconds())
	}
	a, err := plain.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	b, err := wb.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(a, b) {
		t.Error("write-behind changed the result")
	}
}

package exec

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/sim"
)

// shiftSource averages each column with its neighbors — a column stencil
// whose shifted references cross the BLOCK boundaries.
const shiftSource = `parameter (n=32, nprocs=4)
real x(n,n), z(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: x, z
FORALL (k=2:n-1)
  z(1:n,k) = (x(1:n,k-1) + 2*x(1:n,k) + x(1:n,k+1)) / 4
end FORALL
end
`

func shiftFillX(i, j int) float64 { return float64(4 * (i%6 + 3*(j%5))) } // multiples of 4: /4 exact

func runShift(t *testing.T, src string, n, procs, mem int) (*compiler.Result, *Result) {
	t.Helper()
	res, err := compiler.CompileSource(src, compiler.Options{N: n, Procs: procs, MemElems: mem})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Program, sim.Delta(procs), Options{
		Fill: map[string]func(int, int) float64{"x": shiftFillX},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

func TestShiftPatternRecognized(t *testing.T) {
	res, _ := runShift(t, shiftSource, 32, 4, 32*8)
	an := res.Analysis
	if an.Pattern != compiler.PatternShift {
		t.Fatalf("pattern = %v", an.Pattern)
	}
	st := an.Stmts[0]
	if st.MinShift != -1 || st.MaxShift != 1 || st.Lo != 1 || st.Hi != 30 {
		t.Errorf("shift analysis wrong: %+v", st)
	}
	if !strings.Contains(an.Comm, "boundary-column exchange") {
		t.Errorf("communication analysis: %q", an.Comm)
	}
	if !strings.Contains(res.Program.String(), "shift_exchange(ghosts: left=1, right=1)") {
		t.Errorf("program text:\n%s", res.Program.String())
	}
}

func TestShiftExecutionCorrect(t *testing.T) {
	for _, tc := range []struct{ n, p, mem int }{
		{32, 1, 32 * 8},
		{32, 2, 32 * 8},
		{32, 4, 32 * 4},
		{48, 4, 48 * 2}, // one-column slabs
		{32, 8, 32 * 8}, // blocks of 4 columns, ghosts at every boundary
	} {
		t.Run(fmt.Sprintf("n=%d/p=%d", tc.n, tc.p), func(t *testing.T) {
			_, out := runShift(t, shiftSource, tc.n, tc.p, tc.mem)
			z, err := out.ReadArray("z")
			if err != nil {
				t.Fatal(err)
			}
			n := tc.n
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					var want float64
					if j >= 1 && j <= n-2 { // FORALL k=2..n-1 (1-based)
						want = (shiftFillX(i, j-1) + 2*shiftFillX(i, j) + shiftFillX(i, j+1)) / 4
					}
					if z.At(i, j) != want {
						t.Fatalf("z(%d,%d) = %g, want %g", i, j, z.At(i, j), want)
					}
				}
			}
		})
	}
}

func TestShiftCommunicationCounted(t *testing.T) {
	// With 4 processors there are 3 internal boundaries; each input
	// column crossing costs one message per direction per boundary.
	_, out := runShift(t, shiftSource, 32, 4, 32*8)
	comm := out.Stats.TotalComm()
	if comm.MessagesSent != 6 { // 3 boundaries x 2 directions, one input array
		t.Errorf("messages = %d, want 6", comm.MessagesSent)
	}
	if comm.BytesSent != 6*32*4 { // 32-element columns, 4 model bytes each
		t.Errorf("bytes = %d, want %d", comm.BytesSent, 6*32*4)
	}
}

func TestShiftBoundsPreserveOldContents(t *testing.T) {
	// Columns outside the FORALL bounds keep their previous (zero)
	// contents — checked above — and a narrower FORALL leaves more
	// untouched.
	src := strings.Replace(shiftSource, "FORALL (k=2:n-1)", "FORALL (k=8:9)", 1)
	_, out := runShift(t, src, 32, 4, 32*8)
	z, err := out.ReadArray("z")
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 32; j++ {
		touched := j == 7 || j == 8 // 0-based columns for k=8..9
		if touched == (z.At(0, j) == 0 && z.At(5, j) == 0) {
			// touched columns must be nonzero somewhere; untouched all zero
			if touched {
				t.Fatalf("column %d should have been written", j)
			}
			t.Fatalf("column %d should be untouched", j)
		}
	}
}

func TestShiftRejections(t *testing.T) {
	cases := []struct{ name, src string }{
		{"output aliases input", strings.Replace(shiftSource, "z(1:n,k) = (x(1:n,k-1)", "x(1:n,k) = (x(1:n,k-1)", 1)},
		{"shift outside range", strings.Replace(shiftSource, "FORALL (k=2:n-1)", "FORALL (k=1:n)", 1)},
		{"row-block mapping", strings.Replace(shiftSource, "align (*,:)", "align (:,*)", 1)},
	}
	for _, tc := range cases {
		if _, err := compiler.CompileSource(tc.src, compiler.Options{MemElems: 1 << 10}); err == nil {
			t.Errorf("%s: expected compile error", tc.name)
		}
	}
	// Shift wider than a block: blocks of 32/8=4 columns, shift 5.
	wide := strings.Replace(shiftSource, "x(1:n,k-1)", "x(1:n,k-5)", 1)
	wide = strings.Replace(wide, "FORALL (k=2:n-1)", "FORALL (k=6:n-1)", 1)
	if _, err := compiler.CompileSource(wide, compiler.Options{N: 32, Procs: 8, MemElems: 1 << 10}); err == nil {
		t.Error("block-crossing shift should be rejected")
	}
}

func TestShiftPhantomMatchesReal(t *testing.T) {
	res, err := compiler.CompileSource(shiftSource, compiler.Options{N: 32, Procs: 4, MemElems: 32 * 4})
	if err != nil {
		t.Fatal(err)
	}
	real, err := Run(res.Program, sim.Delta(4), Options{
		Fill: map[string]func(int, int) float64{"x": shiftFillX},
	})
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Run(res.Program, sim.Delta(4), Options{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if r, p := real.Stats.TotalIO(), ph.Stats.TotalIO(); !ioStatsEqual(r, p) {
		t.Errorf("phantom IO differs: %+v vs %+v", p, r)
	}
	rt, pt := real.Stats.ElapsedSeconds(), ph.Stats.ElapsedSeconds()
	if d := rt - pt; d > 1e-9 || d < -1e-9 {
		t.Errorf("phantom elapsed %.6f vs real %.6f", pt, rt)
	}
}

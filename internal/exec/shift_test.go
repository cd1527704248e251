package exec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
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

// shiftChainSource is two shifted statements, the second reading the
// first's target: y from x, then z from y.
const shiftChainSource = `parameter (n=32, nprocs=4)
real x(n,n), y(n,n), z(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: x, y, z
FORALL (k=2:n-1)
  y(1:n,k) = (x(1:n,k-1) + x(1:n,k+1)) / 2
end FORALL
FORALL (k=3:n-2)
  z(1:n,k) = (y(1:n,k-1) + 2*y(1:n,k) + y(1:n,k+1)) / 4
end FORALL
end
`

func shiftFillX(i, j int) float64 { return float64(4 * (i%6 + 3*(j%5))) } // multiples of 4: /4 exact

func shiftFills() map[string]func(int, int) float64 {
	return map[string]func(int, int) float64{"x": shiftFillX, "a": jacobiFill, "b": jacobiFill}
}

// jacobiFill is Jacobi's initial grid, given to both a and b: the sweeps
// leave every boundary as filled.
func jacobiFill(i, j int) float64 { return float64((i*7+j*3)%11) - 5 }

func jacobiFills() map[string]func(int, int) float64 {
	return map[string]func(int, int) float64{"a": jacobiFill, "b": jacobiFill}
}

// jacobiProgram compiles hpf.JacobiSource (three trips of two sweeps) at
// n=32 on four processors, slabs of two columns per grid.
func jacobiProgram(t *testing.T) *compiler.Result {
	t.Helper()
	res, err := compiler.CompileSource(hpf.JacobiSource, compiler.Options{N: 32, Procs: 4, MemElems: 128})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runShift(t *testing.T, src string, n, procs, mem int) (*compiler.Result, *Result) {
	t.Helper()
	res, err := compiler.CompileSource(src, compiler.Options{N: n, Procs: procs, MemElems: mem})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Program, sim.Delta(procs), Options{Fill: shiftFills()})
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// shiftExecutionCases are the (n, P, memory) points the shifted class is
// checked at.
var shiftExecutionCases = []struct{ n, p, mem int }{
	{32, 1, 32 * 8},
	{32, 2, 32 * 8},
	{32, 4, 32 * 4},
	{48, 4, 48 * 2}, // one-column slabs
	{32, 8, 32 * 8}, // blocks of 4 columns, ghosts at every boundary
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
	// The named variant also reads arrays called like buffers of the
	// others (z's output slab is out_z, x's ghosts are ghost_x): no two
	// of them may share a buffer slot.
	named := strings.NewReplacer(
		"real x(n,n), z(n,n)", "real x(n,n), z(n,n), out_z(n,n), ghost_x(n,n)",
		":: x, z", ":: x, z, out_z, ghost_x",
		") / 4", ") / 4 + 2*out_z(1:n,k) - ghost_x(1:n,k+1)",
	).Replace(shiftSource)
	fillOut := func(i, j int) float64 { return float64(i + 3*j + 1) }
	fillGhost := func(i, j int) float64 { return float64(2*i - j) }
	fills := shiftFills()
	fills["out_z"], fills["ghost_x"] = fillOut, fillGhost
	for _, tc := range shiftExecutionCases {
		for _, src := range []string{shiftSource, named} {
			name, mem := fmt.Sprintf("n=%d/p=%d", tc.n, tc.p), tc.mem
			if src == named {
				name, mem = name+"/buffer-names", 2*tc.mem // twice the arrays
			}
			t.Run(name, func(t *testing.T) {
				res, err := compiler.CompileSource(src, compiler.Options{N: tc.n, Procs: tc.p, MemElems: mem})
				if err != nil {
					t.Fatal(err)
				}
				out, err := Run(res.Program, sim.Delta(tc.p), Options{Fill: fills})
				if err != nil {
					t.Fatal(err)
				}
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
							if src == named {
								want += 2*fillOut(i, j) - fillGhost(i, j+1)
							}
						}
						if z.At(i, j) != want {
							t.Fatalf("z(%d,%d) = %g, want %g", i, j, z.At(i, j), want)
						}
					}
				}
			})
		}
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

// TestShiftPhantomMatchesReal: a phantom run of the column stencil, and
// of Jacobi's time loop with its row sections, charges what the real one
// does, to the bit.
func TestShiftPhantomMatchesReal(t *testing.T) {
	for _, tc := range shiftExecutionCases {
		for name, src := range map[string]string{"stencil": shiftSource, "jacobi": hpf.JacobiSource} {
			t.Run(fmt.Sprintf("%s/n=%d/p=%d", name, tc.n, tc.p), func(t *testing.T) {
				res, real := runShift(t, src, tc.n, tc.p, tc.mem)
				ph, err := Run(res.Program, sim.Delta(tc.p), Options{Phantom: true})
				if err != nil {
					t.Fatal(err)
				}
				if r, p := real.Stats.TotalIO(), ph.Stats.TotalIO(); !ioStatsEqual(r, p) {
					t.Errorf("phantom IO differs: %+v vs %+v", p, r)
				}
				if rt, pt := real.Stats.ElapsedSeconds(), ph.Stats.ElapsedSeconds(); rt != pt {
					t.Errorf("phantom elapsed %016x vs real %016x", math.Float64bits(pt), math.Float64bits(rt))
				}
			})
		}
	}
}

// TestShiftNoCheckpointBetweenExchangeAndLoop: a resume starts with empty
// buffer slots, so no statement-boundary checkpoint may separate an
// exchange from the slab loop that reads its ghosts; the boundary
// between the two statements keeps its checkpoint.
func TestShiftNoCheckpointBetweenExchangeAndLoop(t *testing.T) {
	res, err := compiler.CompileSource(shiftChainSource, compiler.Options{N: 32, Procs: 4, MemElems: 96})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	exchanges, ckpts := 0, 0
	for pc, ins := range bc.Code {
		switch ins.Op {
		case bytecode.OpCkpt:
			ckpts++
		case bytecode.OpExchange:
			exchanges++
			for q := pc + 1; bc.Code[q].Op != bytecode.OpLoop; q++ {
				if bc.Code[q].Op == bytecode.OpCkpt {
					t.Fatalf("CKPT at pc %d between the EXCHANGE at pc %d and its loop:\n%s", q, pc, bc.Disassemble())
				}
			}
		}
	}
	if exchanges != 2 || ckpts != 1 {
		t.Fatalf("%d EXCHANGE and %d CKPT instructions, want 2 and 1:\n%s", exchanges, ckpts, bc.Disassemble())
	}
}

// TestShiftChainResumesAtEveryEpoch cancels a chain of shifted
// statements from the checkpoint hook at each committed epoch in turn and
// resumes it: every resumed output is the uninterrupted run's, bit for
// bit. The two-statement program checkpoints once per statement; Jacobi's
// two sweeps, a into b and back, sit in a time loop whose LOOP_CKPT
// commits the initial epoch and one between each two of its 3 trips.
func TestShiftChainResumesAtEveryEpoch(t *testing.T) {
	chain, err := compiler.CompileSource(shiftChainSource, compiler.Options{N: 32, Procs: 4, MemElems: 96})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		res     *compiler.Result
		fills   func() map[string]func(int, int) float64
		outputs []string
		epochs  int
	}{
		{"two statements", chain, shiftFills, []string{"z"}, 2},
		{"jacobi", jacobiProgram(t), jacobiFills, []string{"a", "b"}, 3},
	} {
		mach := sim.Delta(4)
		spec := &CheckpointSpec{Every: 1}
		var epochs []int
		base, err := Run(tc.res.Program, mach, Options{Fill: tc.fills(), FS: iosim.NewMemFS(), Checkpoint: spec,
			CkptHook: func(epoch int) { epochs = append(epochs, epoch) }})
		if err != nil {
			t.Fatal(err)
		}
		if len(epochs) != tc.epochs {
			t.Fatalf("%s: checkpoint epochs %v, want %d", tc.name, epochs, tc.epochs)
		}
		for _, cancelAt := range epochs {
			fs := iosim.NewMemFS()
			ctx, cancel := context.WithCancel(context.Background())
			_, err := RunCtx(ctx, tc.res.Program, mach, Options{Fill: tc.fills(), FS: fs, Checkpoint: spec,
				CkptHook: func(epoch int) {
					if epoch == cancelAt {
						cancel()
					}
				}})
			cancel()
			if err == nil {
				t.Fatalf("%s: run cancelled at epoch %d completed", tc.name, cancelAt)
			}
			out, err := Run(tc.res.Program, mach, Options{Fill: tc.fills(), FS: fs, Checkpoint: spec, Resume: true})
			if err != nil {
				t.Fatalf("%s: resume from epoch %d: %v", tc.name, cancelAt, err)
			}
			for _, name := range tc.outputs {
				want, err := base.ReadArray(name)
				if err != nil {
					t.Fatal(err)
				}
				got, err := out.ReadArray(name)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s resumed from epoch %d: %s element %d is %v, uninterrupted %v",
							tc.name, cancelAt, name, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

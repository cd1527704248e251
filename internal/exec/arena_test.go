package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// The arena backs MemFS file storage, so the checked-mode balance
// (Gets == Puts + Drops) now also says that a run gave back every file
// byte it held. These tests pin it on the exits cancel_test.go does not
// reach.

// arenaOutstanding is the number of arena buffers handed out and not yet
// returned since the last ResetStats.
func arenaOutstanding() int64 {
	s := bufpool.Snapshot()
	return s.Gets - s.Puts - s.Drops
}

// TestResilientAttemptsReturnFileStorage: a rank killed mid-run closes its
// handles on the way out (without flushing), the rebuild pre-pass detaches
// its store, and closing the final result removes what the attempts
// shared — so both attempts of a survived loss balance.
func TestResilientAttemptsReturnFileStorage(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	counts := probeOpCounts(t, res)
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	opts := surviveOptions(iosim.NewMemFS())
	opts.Faults = []mp.Fault{{Rank: 2, Op: counts[2] / 2}}
	out, err := Run(res.Program, sim.Delta(res.Program.Procs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempts != 2 {
		t.Fatalf("attempts = %d, want a survived loss", out.Attempts)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if n := arenaOutstanding(); n != 0 {
		t.Fatalf("%d arena buffers outstanding after a recovered run: %+v", n, bufpool.Snapshot())
	}
}

// TestDiskLossReturnsEveryBuffer: losing a disk under parity unlinks its
// files while the owning rank still holds handles on them. The loss
// handler closes the rank's handles as it swaps in the lost-disk
// sentinel, the parity store closes its own on the disk, and a handle
// escalation replaces is closed too, so every buffer of the lost files,
// the parity files and the reconstructed files comes back to the arena —
// also for a loss inside the fills, whose quiet views escalate on the
// array's own handle.
func TestDiskLossReturnsEveryBuffer(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for _, op := range []int64{0, lossOp} {
		bufpool.ResetStats()
		out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
			FS: iosim.NewMemFS(), Fill: sweepFills(), Resilience: parityResilience(), Parity: true,
			Faults: []mp.Fault{{Rank: 1, Op: op, Kind: mp.LoseDisk}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.DiskLosses) != 1 {
			t.Fatalf("loss at op %d: disk losses = %v, want 1", op, out.DiskLosses)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		if n := arenaOutstanding(); n != 0 {
			t.Fatalf("%d arena buffers outstanding after a disk loss survived at op %d: %+v", n, op, bufpool.Snapshot())
		}
	}

	// A permanent fault on one protected file escalates the same way, from
	// a live handle rather than the lost-disk sentinel.
	bufpool.ResetStats()
	chaos := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{
		Schedule: []iosim.ScheduledFault{{File: "c.p1.laf", Op: 3, Kind: iosim.KindPermanent}},
	})
	out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
		FS: chaos, Fill: sweepFills(), Resilience: parityResilience(), Parity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.TotalIO().Reconstructions == 0 {
		t.Fatal("the permanent fault escalated to no reconstruction")
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if n := arenaOutstanding(); n != 0 {
		t.Fatalf("%d arena buffers outstanding after an escalated permanent fault: %+v", n, bufpool.Snapshot())
	}
}

// TestCancelDuringTwoPhaseFinish fires the cancellation from inside the
// two-phase receiver's flush — a read of rank 0's scratch file, which is
// open and holds arena storage at that moment, as do the window's pairs
// and staging. The collective runs to its end (cancellation is taken at
// op boundaries), the ranks stop at the next one, and the unwinding
// returns the scratch file, the array files and every bucket.
func TestCancelDuringTwoPhaseFinish(t *testing.T) {
	const n, procs = 64, 4
	cres, err := compiler.CompileSource(hpf.TransposeSource, compiler.Options{
		N: n, Procs: procs, MemElems: 8 * n, Force: "two-phase",
	})
	if err != nil {
		t.Fatal(err)
	}
	fills := map[string]func(int, int) float64{"a": func(gi, gj int) float64 { return float64(gi*n + gj) }}
	// One rank's scratch file sees a fixed sequence: create, truncate, the
	// rounds' appends, one read per window from finish, remove.
	const scratch = ".p0.collio.scratch"
	const windows = 8 // 16 local columns in windows of MemElems/4/n = 2
	ctx, fs := cancelAtOp(0)
	fs.only = scratch
	out, err := RunCtx(ctx, cres.Program, sim.Delta(procs), Options{FS: fs, Fill: fills})
	if err != nil {
		t.Fatal(err)
	}
	total := fs.ops.Load()
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if total < windows+3 {
		t.Fatalf("%d scratch operations: the receiver did not spill", total)
	}
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for _, at := range []int64{total - windows, total - windows/2, total - 1} {
		bufpool.ResetStats()
		ctx, cancel := context.WithCancel(context.Background())
		inFinish := false
		fs := &cancelFS{FS: iosim.NewMemFS(), only: scratch, at: at, fire: func() {
			buf := make([]byte, 1<<16)
			inFinish = strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*twoPhaseReceiver).finish")
			cancel()
		}}
		_, err := RunCtx(ctx, cres.Program, sim.Delta(procs), Options{FS: fs, Fill: fills})
		cancel()
		if !inFinish {
			t.Fatalf("scratch op %d of %d is not in finish: the cancel did not land where the test means it to", at, total)
		}
		checkCancelled(t, fmt.Sprintf("cancel at scratch op %d of %d", at, total), err)
		for _, name := range fs.FS.(*iosim.MemFS).Names() {
			if strings.Contains(name, ".collio.scratch") {
				t.Fatalf("cancel at scratch op %d of %d left %s behind", at, total, name)
			}
		}
	}
}

// TestPhantomRunBalancesArena: a phantom run reduces counts, not payloads
// (mp.ReduceElided), and takes its accumulators from the arena. A
// completed run must leave the arena balanced, and so must one that
// loses a rank in the middle of its reductions — resolving, as a real
// run does, to the agreed failed set. The arrays fit in memory, so all
// but the first and last few of a rank's operations are the reductions'
// messages and the kills land among those.
func TestPhantomRunBalancesArena(t *testing.T) {
	const procs = 4
	res := compileGaxpy(t, 32, procs, 1<<12)
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for _, phantom := range []bool{false, true} {
		counts := make([]int64, procs)
		run := func(kill []mp.Fault) error {
			bufpool.ResetStats()
			out, err := Run(res.Program, sim.Delta(procs), Options{
				Phantom: phantom, Fill: sweepFills(), OpCounts: counts, Faults: kill,
			})
			if err == nil {
				err = out.Close()
			}
			if n := arenaOutstanding(); n != 0 {
				t.Errorf("phantom %v, kill %v: %d arena buffers outstanding: %+v", phantom, kill, n, bufpool.Snapshot())
			}
			return err
		}
		if err := run(nil); err != nil {
			t.Fatal(err)
		}
		for _, op := range []int64{counts[2] / 4, counts[2] / 2, 3 * counts[2] / 4} {
			err := run([]mp.Fault{{Rank: 2, Op: op}})
			var rf *mp.RankFailure
			if !errors.As(err, &rf) || fmt.Sprint(rf.Failed) != "[2]" {
				t.Errorf("phantom %v, kill at op %d: want a RankFailure of rank 2, got %v", phantom, op, err)
			}
		}
	}
}

// TestFailedSlabReadReturnsItsBuffer: a slab read takes its buffer from
// the arena before it touches the file, so a read that fails has to give
// it back. One permanent fault lands on every operation of one rank's
// array files in turn — every chunk read of the run among them; nothing
// else fails, so the run's clean-up works — and every failed run must
// leave the arena balanced. Prefetch adds the reader's window: a slab
// taken out of the pipeline while the read behind it fails. The column
// stencil's rank 1 has neighbors on both sides, so its faults also land
// on the exchange's section reads, the halo reads and the output
// pre-reads, with ghosts and halo slabs held; Jacobi's land on all of
// those in every trip of its time loop.
func TestFailedSlabReadReturnsItsBuffer(t *testing.T) {
	stencil, err := compiler.CompileSource(shiftSource, compiler.Options{N: 32, Procs: 4, MemElems: 128})
	if err != nil {
		t.Fatal(err)
	}
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for _, tc := range []struct {
		name  string
		res   *compiler.Result
		fills map[string]func(int, int) float64
		rank  int
	}{
		{"gaxpy", sweepProgram(t), sweepFills(), 0},
		{"columnstencil", stencil, shiftFills(), 1},
		{"jacobi", jacobiProgram(t), jacobiFills(), 1},
	} {
		mach := sim.Delta(tc.res.Program.Procs)
		for _, prefetch := range []bool{false, true} {
			run := func(schedule []iosim.ScheduledFault) (*iosim.ChaosFS, error) {
				bufpool.ResetStats()
				fs := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{Schedule: schedule})
				out, err := Run(withRuntime(tc.res.Program, oocarray.Options{Prefetch: prefetch}), mach, Options{FS: fs, Fill: tc.fills})
				if err == nil {
					err = out.Close()
				}
				if n := arenaOutstanding(); n != 0 {
					t.Errorf("%s, prefetch %v, fault %v: %d arena buffers outstanding: %+v", tc.name, prefetch, schedule, n, bufpool.Snapshot())
				}
				return fs, err
			}
			clean, err := run(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range tc.res.Program.Arrays {
				file := fmt.Sprintf("%s.p%d.laf", spec.Name, tc.rank)
				ops := clean.FileOps(file)
				if ops == 0 {
					t.Fatalf("no operation on %s", file)
				}
				// The file's last operation is Close removing it: not the run's.
				for k := int64(0); k < ops-1; k++ {
					if _, err := run([]iosim.ScheduledFault{{File: file, Op: k, Kind: iosim.KindPermanent}}); err == nil {
						t.Errorf("%s, prefetch %v: a permanent fault at op %d of %s did not fail the run", tc.name, prefetch, k, file)
					}
				}
			}
		}
	}
}

// TestKillAtEveryOpBalancesArena lands a fail-stop kill of rank 2 on
// every one of its operations in a real-data run over many slabs — chunk
// reads and writes as well as messages. A kill inside a slab read unwinds
// past the read with its buffer taken and not yet delivered
// (oocarray.Array holds it for Close), and with prefetch on past the
// reader's window too; in the two shifted statements, and in every trip
// of Jacobi's time loop, it also unwinds from the ghost exchange and from
// slab loops holding ghosts, halo slabs and the pre-read output. Every
// run must resolve to the agreed failed set and leave the arena balanced.
func TestKillAtEveryOpBalancesArena(t *testing.T) {
	const procs, victim = 4, 2
	chain, err := compiler.CompileSource(shiftChainSource, compiler.Options{N: 32, Procs: procs, MemElems: 96})
	if err != nil {
		t.Fatal(err)
	}
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for _, tc := range []struct {
		name  string
		res   *compiler.Result
		fills map[string]func(int, int) float64
	}{
		{"gaxpy", chaosProgram(t, "row-slab"), sweepFills()},
		{"shift chain", chain, shiftFills()},
		{"jacobi", jacobiProgram(t), jacobiFills()},
	} {
		for _, prefetch := range []bool{false, true} {
			counts := make([]int64, procs)
			run := func(kill []mp.Fault) error {
				bufpool.ResetStats()
				out, err := Run(withRuntime(tc.res.Program, oocarray.Options{Prefetch: prefetch}), sim.Delta(procs), Options{
					Fill: tc.fills, OpCounts: counts, Faults: kill,
				})
				if err == nil {
					err = out.Close()
				}
				if n := arenaOutstanding(); n != 0 {
					t.Errorf("%s, prefetch %v, kill %v: %d arena buffers outstanding: %+v", tc.name, prefetch, kill, n, bufpool.Snapshot())
				}
				return err
			}
			if err := run(nil); err != nil {
				t.Fatal(err)
			}
			total := counts[victim]
			step := int64(1)
			if testing.Short() {
				step = 7
			}
			for op := int64(0); op < total; op += step {
				err := run([]mp.Fault{{Rank: victim, Op: op}})
				var rf *mp.RankFailure
				if !errors.As(err, &rf) || fmt.Sprint(rf.Failed) != fmt.Sprint([]int{victim}) {
					t.Errorf("%s, prefetch %v, kill at op %d of %d: want a RankFailure of rank %d, got %v", tc.name, prefetch, op, total, victim, err)
				}
			}
		}
	}
}

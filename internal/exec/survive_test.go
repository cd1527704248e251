package exec

import (
	"errors"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// surviveOptions is the fully protected configuration: checkpoints to
// resume from, parity to rebuild the dead disk from, and heartbeat
// detection so blocked survivors abort with typed errors.
func surviveOptions(fs iosim.FS) Options {
	return Options{
		FS:         fs,
		Fill:       sweepFills(),
		Checkpoint: &CheckpointSpec{Every: 1},
		Parity:     true,
		Resilience: parityResilience(),
	}
}

// probeOpCounts runs the protected configuration fault-free and returns
// each rank's fail-stop operation count — the op-index space a kill
// schedule can target.
func probeOpCounts(t *testing.T, res *compiler.Result) []int64 {
	t.Helper()
	counts := make([]int64, res.Program.Procs)
	opts := surviveOptions(iosim.NewMemFS())
	opts.OpCounts = counts
	out, err := Run(res.Program, sim.Delta(res.Program.Procs), opts)
	if err != nil {
		t.Fatal(err)
	}
	out.Close()
	return counts
}

// TestRunResilientSurvivesSingleKill is the end-to-end recovery pipeline:
// a rank killed mid-run is detected, agreed on, its disk rebuilt from
// parity, and the run resumed from the last checkpoint — with the final
// array bitwise identical to the failure-free run and every recovery
// counter reconciling against the span timelines of both attempts.
func TestRunResilientSurvivesSingleKill(t *testing.T) {
	for _, force := range []string{"row-slab", "column-slab"} {
		t.Run(force, func(t *testing.T) {
			res := chaosProgram(t, force)
			want := baselineC(t, res)
			mach := sim.Delta(res.Program.Procs)
			counts := probeOpCounts(t, res)

			victim := 2
			opts := surviveOptions(iosim.NewMemFS())
			opts.Kill = []mp.KillSpec{{Rank: victim, Op: counts[victim] / 2}}
			opts.Trace = trace.NewTracer(res.Program.Procs)
			out, err := RunResilient(res.Program, mach, opts, 1)
			if err != nil {
				t.Fatalf("RunResilient: %v", err)
			}
			if out.Attempts != 2 || len(out.Recoveries) != 1 {
				t.Fatalf("attempts=%d recoveries=%d, want 2/1", out.Attempts, len(out.Recoveries))
			}
			rec := out.Recoveries[0]
			if len(rec.Failed) != 1 || rec.Failed[0] != victim {
				t.Fatalf("agreed failed set %v, want [%d]", rec.Failed, victim)
			}

			got, err := out.ReadArray("c")
			if err != nil {
				t.Fatal(err)
			}
			if err := matricesIdentical(got, want); err != nil {
				t.Fatalf("recovered run diverged from failure-free run: %v", err)
			}

			// Recovery counters: the aborted attempt detected and agreed,
			// the rebuild reconstructed every array file of the dead rank,
			// and the successful attempt respawned exactly one rank.
			ac := rec.Stats.TotalComm()
			// DetectSeconds can legitimately be zero: a survivor that
			// blocks after the heartbeat deadline already passed detects
			// for free (the positive charge is pinned in internal/mp).
			if ac.Detections == 0 || ac.DetectSeconds < 0 {
				t.Fatalf("no detection recorded: %+v", ac)
			}
			if ac.Agreements == 0 {
				t.Fatalf("no agreement recorded: %+v", ac)
			}
			if n := int64(len(res.Program.Arrays)); rec.RebuildIO.Reconstructions != n {
				t.Fatalf("Reconstructions = %d, want %d (one per array)", rec.RebuildIO.Reconstructions, n)
			}
			if rec.RebuildSeconds <= 0 {
				t.Fatalf("rebuild charged no simulated time")
			}
			if sc := out.Stats.TotalComm(); sc.Respawns != 1 {
				t.Fatalf("Respawns = %d, want 1", sc.Respawns)
			}

			// Both attempts' spans replay to their statistics exactly —
			// the aborted one included.
			if err := trace.Reconcile(rec.Trace.Spans(), rec.Stats, rec.PerArray); err != nil {
				t.Fatalf("aborted attempt does not reconcile:\n%v", err)
			}
			if err := trace.Reconcile(out.Trace.Spans(), out.Stats, out.PerArray); err != nil {
				t.Fatalf("successful attempt does not reconcile:\n%v", err)
			}
			out.Close()
		})
	}
}

// TestRunResilientKillSweep kills rank 1 at a spread of op indices across
// its whole op space — including during array fill, before the first
// checkpoint commit — and every run must recover to the bitwise-correct
// result without hanging.
func TestRunResilientKillSweep(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	want := baselineC(t, res)
	mach := sim.Delta(res.Program.Procs)
	counts := probeOpCounts(t, res)

	victim := 1
	step := counts[victim] / 6
	if step < 1 {
		step = 1
	}
	for op := int64(0); op < counts[victim]; op += step {
		opts := surviveOptions(iosim.NewMemFS())
		opts.Kill = []mp.KillSpec{{Rank: victim, Op: op}}
		out, err := RunResilient(res.Program, mach, opts, 1)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if len(out.Recoveries) != 1 {
			t.Fatalf("op %d: recoveries=%d, want 1", op, len(out.Recoveries))
		}
		got, err := out.ReadArray("c")
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if err := matricesIdentical(got, want); err != nil {
			t.Fatalf("op %d: diverged: %v", op, err)
		}
		out.Close()
	}
}

// TestRunResilientSecondKillDuringRecovery injects a second rank death
// into the resumed attempt (a failure during recovery): with budget it
// recovers twice and still produces the bitwise-correct result; without
// budget it exits with a clean joined error — never a hang.
func TestRunResilientSecondKillDuringRecovery(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	want := baselineC(t, res)
	mach := sim.Delta(res.Program.Procs)
	counts := probeOpCounts(t, res)

	kills := []mp.KillSpec{
		{Rank: 1, Op: counts[1] / 2},
		// Fires early in the respawned attempt's fresh op numbering,
		// i.e. while the run is still re-establishing itself.
		{Rank: 2, Op: 5},
	}

	opts := surviveOptions(iosim.NewMemFS())
	opts.Kill = kills
	out, err := RunResilient(res.Program, mach, opts, 2)
	if err != nil {
		t.Fatalf("double kill with budget 2: %v", err)
	}
	if out.Attempts != 3 || len(out.Recoveries) != 2 {
		t.Fatalf("attempts=%d recoveries=%d, want 3/2", out.Attempts, len(out.Recoveries))
	}
	got, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := matricesIdentical(got, want); err != nil {
		t.Fatalf("double-recovered run diverged: %v", err)
	}
	out.Close()

	opts = surviveOptions(iosim.NewMemFS())
	opts.Kill = kills
	if _, err := RunResilient(res.Program, mach, opts, 1); err == nil {
		t.Fatal("recovery budget 1 must not absorb two failures")
	} else if !strings.Contains(err.Error(), "recovery limit") {
		t.Fatalf("want recovery-limit error, got: %v", err)
	}
}

// TestRunResilientSecondFailureMidRebuild loses a survivor's disk while
// the offline rebuild is reading it (a double fault mid-recovery): the
// run must exit with a clean joined error naming both failures, never
// hang or return corrupt data.
func TestRunResilientSecondFailureMidRebuild(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	mach := sim.Delta(res.Program.Procs)
	counts := probeOpCounts(t, res)
	victim := 1
	kill := []mp.KillSpec{{Rank: victim, Op: counts[victim] / 2}}

	// Probe: replay just the aborted attempt to learn how many chaos ops
	// the survivor's file sees before the rebuild pre-pass starts.
	survivorFile := "a.p0.laf"
	probe := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{})
	popts := surviveOptions(probe)
	popts.Kill = kill
	if _, err := Run(res.Program, mach, popts); err == nil {
		t.Fatal("probe kill run unexpectedly completed")
	}
	preRebuild := probe.FileOps(survivorFile)

	// The same run under RunResilient reaches the rebuild pre-pass with
	// identical per-file op counts (the simulation is deterministic), so
	// a loss scheduled just past them fires during the rebuild's gather
	// reads.
	chaos := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{
		Schedule: []iosim.ScheduledFault{{File: survivorFile, Op: preRebuild + 1, Kind: iosim.KindDiskLoss}},
	})
	opts := surviveOptions(chaos)
	opts.Kill = kill
	_, err := RunResilient(res.Program, mach, opts, 1)
	if err == nil {
		t.Fatal("double fault mid-rebuild must fail the run")
	}
	if !strings.Contains(err.Error(), "rebuilding ranks") {
		t.Fatalf("error does not name the rebuild failure: %v", err)
	}
	var rk *mp.RankKilledError
	if !errors.As(err, &rk) || rk.Rank != victim {
		t.Fatalf("error does not retain the original kill: %v", err)
	}
	if chaos.Counts().DiskLosses == 0 {
		t.Fatal("scheduled mid-rebuild disk loss never fired")
	}
}

// TestRunResilientUnprotectedDies is the control: a rank loss without
// checkpoint+parity protection is reported as unrecoverable instead of
// being silently absorbed.
func TestRunResilientUnprotectedDies(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	mach := sim.Delta(res.Program.Procs)
	counts := probeOpCounts(t, res)
	kill := []mp.KillSpec{{Rank: 1, Op: counts[1] / 2}}

	opts := Options{
		Fill: sweepFills(),
		Kill: kill,
	}
	_, err := RunResilient(res.Program, mach, Options{
		Fill: opts.Fill, Kill: kill,
	}, 4)
	if err == nil {
		t.Fatal("unprotected rank loss must fail")
	}
	if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("want unrecoverable error, got: %v", err)
	}

	// Plain Run reports the typed failure too.
	_, err = Run(res.Program, mach, opts)
	var rf *mp.RankFailure
	if !errors.As(err, &rf) || len(rf.Failed) != 1 || rf.Failed[0] != 1 {
		t.Fatalf("plain killed run: failed set not surfaced: %v", err)
	}
}

// TestRunResilientNoFailureMatchesRun pins the zero-failure path: with a
// kill schedule that never fires, RunResilient is a plain run — one
// attempt, no recoveries, bitwise-identical output.
func TestRunResilientNoFailureMatchesRun(t *testing.T) {
	res := chaosProgram(t, "column-slab")
	want := baselineC(t, res)
	mach := sim.Delta(res.Program.Procs)

	opts := surviveOptions(iosim.NewMemFS())
	opts.Kill = []mp.KillSpec{{Rank: 0, Op: 1 << 40}}
	out, err := RunResilient(res.Program, mach, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempts != 1 || len(out.Recoveries) != 0 {
		t.Fatalf("attempts=%d recoveries=%d, want 1/0", out.Attempts, len(out.Recoveries))
	}
	got, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := matricesIdentical(got, want); err != nil {
		t.Fatalf("no-failure resilient run diverged: %v", err)
	}
	out.Close()
}

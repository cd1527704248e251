package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
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

// rebuildProbe is a chaos store that notes the survivor file's op count
// at the first removal of the dead file — the rebuild pre-pass's first
// step.
type rebuildProbe struct {
	*iosim.ChaosFS
	dead, survivor string
	once           sync.Once
	seen           bool
	at             int64
}

func (p *rebuildProbe) Remove(name string) error {
	if name == p.dead {
		p.once.Do(func() { p.seen, p.at = true, p.ChaosFS.FileOps(p.survivor) })
	}
	return p.ChaosFS.Remove(name)
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
			opts.Faults = []mp.Fault{{Rank: victim, Op: counts[victim] / 2}}
			opts.Trace = trace.NewTracer(res.Program.Procs)
			out, err := Run(res.Program, mach, opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
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
		opts.Faults = []mp.Fault{{Rank: victim, Op: op}}
		out, err := Run(res.Program, mach, opts)
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
// into the resumed attempt (a failure during recovery): the run recovers
// twice and still produces the bitwise-correct result — never a hang.
func TestRunResilientSecondKillDuringRecovery(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	want := baselineC(t, res)
	mach := sim.Delta(res.Program.Procs)
	counts := probeOpCounts(t, res)

	kills := []mp.Fault{
		{Rank: 1, Op: counts[1] / 2},
		// Fires early in the respawned attempt's fresh op numbering,
		// i.e. while the run is still re-establishing itself.
		{Rank: 2, Op: 5},
	}

	opts := surviveOptions(iosim.NewMemFS())
	opts.Faults = kills
	out, err := Run(res.Program, mach, opts)
	if err != nil {
		t.Fatalf("double kill: %v", err)
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
}

// TestRunResilientSecondFailureMidRebuild fails a survivor's file
// permanently while the offline rebuild is reading it (a double fault
// mid-recovery): the run must exit with a clean joined error naming both
// failures, never hang or return corrupt data.
func TestRunResilientSecondFailureMidRebuild(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	mach := sim.Delta(res.Program.Procs)
	counts := probeOpCounts(t, res)
	victim := 1
	kill := []mp.Fault{{Rank: victim, Op: counts[victim] / 2}}

	// Probe: survive the same loss once to learn how many chaos ops the
	// survivor's file has seen when the rebuild pre-pass starts, which it
	// does by removing the dead rank's files.
	survivorFile := "a.p0.laf"
	probe := &rebuildProbe{ChaosFS: iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{}),
		dead: oocarray.FileName(res.Program.Arrays[0].Name, victim), survivor: survivorFile}
	popts := surviveOptions(probe)
	popts.Faults = kill
	out, err := Run(res.Program, mach, popts)
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	out.Close()
	if !probe.seen {
		t.Fatal("the probe run never removed the dead rank's file")
	}
	preRebuild := probe.at

	// The same run reaches the rebuild pre-pass with identical per-file
	// op counts (the simulation is deterministic), so a fault scheduled
	// just past them fires during the rebuild's gather reads.
	chaos := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{
		Schedule: []iosim.ScheduledFault{{File: survivorFile, Op: preRebuild + 1, Kind: iosim.KindPermanent}},
	})
	opts := surviveOptions(chaos)
	opts.Faults = kill
	_, err = Run(res.Program, mach, opts)
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
	if chaos.Counts().Permanent == 0 {
		t.Fatal("scheduled mid-rebuild fault never fired")
	}
}

// TestRunResilientDiskLossThenDeathOfAnotherRank loses a survivor's
// disk in the attempt a rank dies in (a double fault): the offline
// rebuild of the dead rank finds the survivor's disk gone — the parity
// files it hosted and the files its rank had not touched again — and the
// run must exit with a clean joined error naming both failures.
func TestRunResilientDiskLossThenDeathOfAnotherRank(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	mach := sim.Delta(res.Program.Procs)
	counts := probeOpCounts(t, res)
	victim, survivor := 1, 0
	kill := mp.Fault{Rank: victim, Op: counts[victim] / 2}

	// Rank 0's disk goes a quarter into its operations, which it reaches
	// before rank 1's death stalls it: the loss fires in the same attempt.
	loss := mp.Fault{Rank: survivor, Op: counts[survivor] / 4, Kind: mp.LoseDisk}
	opts := surviveOptions(iosim.NewMemFS())
	opts.Faults = []mp.Fault{kill, loss}
	_, err := Run(res.Program, mach, opts)
	if err == nil {
		t.Fatal("a disk loss and a death on two ranks must fail the run")
	}
	if !strings.Contains(err.Error(), "rebuilding ranks") {
		t.Fatalf("error does not name the rebuild failure: %v", err)
	}
	var rk *mp.RankKilledError
	if !errors.As(err, &rk) || rk.Rank != victim {
		t.Fatalf("error does not retain the original kill: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf(".p%d.", survivor)) {
		t.Fatalf("scheduled disk loss of rank %d never fired: %v", survivor, err)
	}
}

// TestRunResilientLossThenDeathOfOneRank: rank 2 loses its disk and
// later dies in the same attempt. The death's offline rebuild restores
// the rank's disk whole, so the run survives, and the fired loss is
// pruned with the fired death: the resumed attempt, which numbers its
// operations afresh, loses nothing again.
func TestRunResilientLossThenDeathOfOneRank(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	want := baselineC(t, res)
	counts := probeOpCounts(t, res)
	const victim = 2
	loss := mp.Fault{Rank: victim, Op: counts[victim] / 8, Kind: mp.LoseDisk}
	opts := surviveOptions(iosim.NewMemFS())
	opts.Faults = []mp.Fault{loss, {Rank: victim, Op: counts[victim] / 2}}
	out, err := Run(res.Program, sim.Delta(res.Program.Procs), opts)
	if err != nil {
		t.Fatalf("a loss and a death of one rank must be survived: %v", err)
	}
	defer out.Close()
	if out.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", out.Attempts)
	}
	if len(out.DiskLosses) != 1 || out.DiskLosses[0] != loss {
		t.Fatalf("disk losses = %+v, want the one scheduled, once", out.DiskLosses)
	}
	got, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := matricesIdentical(got, want); err != nil {
		t.Fatalf("recovered run diverged: %v", err)
	}
}

// TestRunResilientUnprotectedDies is the control: a rank loss without
// checkpoint+parity protection is reported as unrecoverable instead of
// being silently absorbed.
func TestRunResilientUnprotectedDies(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	mach := sim.Delta(res.Program.Procs)
	counts := probeOpCounts(t, res)
	kill := []mp.Fault{{Rank: 1, Op: counts[1] / 2}}

	opts := Options{
		Fill:   sweepFills(),
		Faults: kill,
	}
	_, err := Run(res.Program, mach, opts)
	if err == nil {
		t.Fatal("unprotected rank loss must fail")
	}
	if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("want unrecoverable error, got: %v", err)
	}

	// The typed failure stays in the chain.
	var rf *mp.RankFailure
	if !errors.As(err, &rf) || len(rf.Failed) != 1 || rf.Failed[0] != 1 {
		t.Fatalf("plain killed run: failed set not surfaced: %v", err)
	}
}

// TestRunResilientNoFailureMatchesRun pins the zero-failure path: with a
// kill schedule that never fires, a protected run is a plain run — one
// attempt, no recoveries, bitwise-identical output.
func TestRunResilientNoFailureMatchesRun(t *testing.T) {
	res := chaosProgram(t, "column-slab")
	want := baselineC(t, res)
	mach := sim.Delta(res.Program.Procs)

	opts := surviveOptions(iosim.NewMemFS())
	opts.Faults = []mp.Fault{{Rank: 0, Op: 1 << 40}}
	out, err := Run(res.Program, mach, opts)
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

// TestResumeSurvivesKill: a resume under a kill schedule starts from the
// committed checkpoint — its first commit is the epoch after the
// manifest's, where a fresh start commits epoch 0 first — survives the
// loss, and ends bitwise equal to the failure-free run.
func TestResumeSurvivesKill(t *testing.T) {
	// Column-slab commits epochs 0 to 4; row-slab only 0 and 1.
	res := chaosProgram(t, "column-slab")
	want := baselineC(t, res)
	mach := sim.Delta(res.Program.Procs)
	protected := func(fs iosim.FS) Options {
		return Options{FS: fs, Fill: sweepFills(), Checkpoint: &CheckpointSpec{Every: 1}, Parity: true}
	}

	// committed returns a store that a run cancelled right after
	// committing epoch 1 left behind.
	const committedEpoch = 1
	committed := func() iosim.FS {
		t.Helper()
		mem := iosim.NewMemFS()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := protected(mem)
		opts.CkptHook = func(epoch int) {
			if epoch == committedEpoch {
				cancel()
			}
		}
		if _, err := RunCtx(ctx, res.Program, mach, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("the run was to be cancelled after epoch %d: %v", committedEpoch, err)
		}
		return mem
	}

	// The resumed run's op space, where the kill must land.
	counts := make([]int64, res.Program.Procs)
	opts := protected(committed())
	opts.Resume, opts.OpCounts = true, counts
	out, err := Run(res.Program, mach, opts)
	if err != nil {
		t.Fatal(err)
	}
	out.Close()

	const victim = 1
	var epochs []int
	opts = protected(committed())
	opts.Resume = true
	opts.Faults = []mp.Fault{{Rank: victim, Op: counts[victim] / 2}}
	opts.CkptHook = func(epoch int) { epochs = append(epochs, epoch) }
	out, err = Run(res.Program, mach, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if out.Attempts != 2 || len(out.Recoveries) != 1 || out.Recoveries[0].Failed[0] != victim {
		t.Fatalf("attempts=%d recoveries=%+v, want one survived loss of rank %d", out.Attempts, out.Recoveries, victim)
	}
	if len(epochs) == 0 || epochs[0] != committedEpoch+1 {
		t.Fatalf("committed epochs %v: the first attempt did not resume after epoch %d", epochs, committedEpoch)
	}
	got, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := matricesIdentical(got, want); err != nil {
		t.Fatalf("diverged from the failure-free run: %v", err)
	}
}

// TestSurvivedLossHandsTracerOn: without a loss the run records into
// Options.Trace; after one, the aborted attempt's spans are in the
// caller's tracer and the successful attempt's in a fresh one. Each
// timeline reconciles with its own statistics, and the one live stream
// carries every attempt's spans exactly once.
func TestSurvivedLossHandsTracerOn(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	mach := sim.Delta(res.Program.Procs)
	counts := probeOpCounts(t, res)

	opts := surviveOptions(iosim.NewMemFS())
	opts.Trace = trace.NewTracer(res.Program.Procs)
	out, err := Run(res.Program, mach, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace != opts.Trace {
		t.Error("a run without a loss does not hand back the caller's tracer")
	}
	out.Close()

	var stream bytes.Buffer
	opts = surviveOptions(iosim.NewMemFS())
	opts.Faults = []mp.Fault{{Rank: 2, Op: counts[2] / 2}}
	caller := trace.NewTracer(res.Program.Procs)
	caller.SetSink(trace.NewChromeSink(&stream, res.Program.Procs))
	opts.Trace = caller
	out, err = Run(res.Program, mach, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := caller.CloseSink(); err != nil {
		t.Fatal(err)
	}
	if len(out.Recoveries) != 1 {
		t.Fatalf("%d recoveries, want 1", len(out.Recoveries))
	}
	rec := out.Recoveries[0]
	if rec.Trace != caller {
		t.Error("the aborted attempt did not record into the caller's tracer")
	}
	if out.Trace == nil || out.Trace == caller {
		t.Fatal("the successful attempt did not record into a fresh tracer")
	}
	aborted, success := caller.Spans(), out.Trace.Spans()
	if len(aborted) == 0 || len(success) == 0 {
		t.Fatalf("aborted attempt %d spans, successful %d", len(aborted), len(success))
	}
	if err := trace.Reconcile(aborted, rec.Stats, rec.PerArray); err != nil {
		t.Fatalf("aborted attempt does not reconcile:\n%v", err)
	}
	if err := trace.Reconcile(success, out.Stats, out.PerArray); err != nil {
		t.Fatalf("successful attempt does not reconcile:\n%v", err)
	}

	tl, err := trace.ParseTrace(stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tl.Dropped != 0 || !tl.Complete {
		t.Fatalf("the stream dropped %d spans (complete %v)", tl.Dropped, tl.Complete)
	}
	streamed := tl.Spans
	left := map[trace.Span]int{}
	for _, sp := range append(aborted, success...) {
		left[sp]++
	}
	for _, sp := range streamed {
		if left[sp] == 0 {
			t.Fatalf("streamed span %+v is not an attempt's, or is streamed twice", sp)
		}
		left[sp]--
	}
	if len(streamed) != len(aborted)+len(success) {
		t.Fatalf("the stream carries %d spans, the attempts %d + %d", len(streamed), len(aborted), len(success))
	}
}

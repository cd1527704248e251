package exec

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

// chaosProgram compiles the GAXPY instance used by the chaos harness,
// sized so both strategies strip-mine into several slabs.
func chaosProgram(t *testing.T, force string) *compiler.Result {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource,
		compiler.Options{N: 32, Procs: 4, MemElems: 300, Force: force})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// baselineC runs the program fault-free and returns the result matrix.
func baselineC(t *testing.T, res *compiler.Result) *matrix.Matrix {
	t.Helper()
	out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{Fill: sweepFills()})
	if err != nil {
		t.Fatal(err)
	}
	c, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func matricesIdentical(a, b *matrix.Matrix) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return fmt.Errorf("element %d: %g != %g", i, a.Data[i], b.Data[i])
		}
	}
	return nil
}

// TestChaosTransientRunMatchesFaultFree (acceptance a): a GAXPY run with
// transient-fault probability > 0 completes with output bitwise identical
// to the fault-free run, with retry counters > 0 in trace.IOStats.
func TestChaosTransientRunMatchesFaultFree(t *testing.T) {
	for _, force := range []string{"row-slab", "column-slab"} {
		t.Run(force, func(t *testing.T) {
			res := chaosProgram(t, force)
			want := baselineC(t, res)

			out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
				Chaos:      iosim.ChaosConfig{Seed: 1, PTransient: 0.03},
				Fill:       sweepFills(),
				Resilience: iosim.NewResilience(iosim.RetryPolicy{MaxRetries: 12, BaseBackoff: 1e-3, MaxBackoff: 8e-3}),
			})
			if err != nil {
				t.Fatalf("transient faults must be absorbed by retries: %v", err)
			}
			if c := out.Chaos; c.Transient == 0 {
				t.Fatalf("the chaos model injected nothing: %+v", c)
			}
			got, err := out.ReadArray("c")
			if err != nil {
				t.Fatal(err)
			}
			if err := matricesIdentical(got, want); err != nil {
				t.Fatalf("chaos run diverged from fault-free run: %v", err)
			}
			if io := out.Stats.TotalIO(); io.Retries == 0 || io.RetrySeconds <= 0 {
				t.Fatalf("retries not surfaced in IOStats: %+v", io)
			}
		})
	}
}

// TestChaosCorruptionNeverSilent (acceptance c): injected bit-corruption
// on LAF reads is detected by checksum and repaired by retry; the output
// is still bitwise identical to the fault-free run.
func TestChaosCorruptionNeverSilent(t *testing.T) {
	res := chaosProgram(t, "")
	want := baselineC(t, res)

	out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
		Chaos:      iosim.ChaosConfig{Seed: 5, PCorrupt: 0.05},
		Fill:       sweepFills(),
		Resilience: iosim.NewResilience(iosim.RetryPolicy{MaxRetries: 12, BaseBackoff: 1e-3, MaxBackoff: 8e-3}),
	})
	if err != nil {
		t.Fatalf("read-path corruption must be repaired by retry: %v", err)
	}
	if c := out.Chaos; c.Corruptions == 0 {
		t.Fatalf("the chaos model injected no corruption: %+v", c)
	}
	got, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := matricesIdentical(got, want); err != nil {
		t.Fatalf("corruption silently propagated into the result: %v", err)
	}
}

// TestResumeAfterKillBitwiseIdentical (acceptance b): a checkpointed run
// killed mid-execution resumes from its last consistent checkpoint and
// produces results bitwise identical to an uninterrupted run.
func TestResumeAfterKillBitwiseIdentical(t *testing.T) {
	for _, force := range []string{"row-slab", "column-slab"} {
		t.Run(force, func(t *testing.T) {
			res := chaosProgram(t, force)
			want := baselineC(t, res)
			mach := sim.Delta(res.Program.Procs)
			ckpt := &CheckpointSpec{Every: 1}

			// Measure each rank's file operations in an uninterrupted
			// checkpointed run.
			counts := fileOps(t, res.Program, mach, Options{Fill: sweepFills(), Checkpoint: ckpt})

			// Kill near the end: every file operation of one rank from an
			// op on fails permanently. Scan each rank downward from its
			// last op for the latest kill point that both fails the run
			// and leaves a committed checkpoint behind (a kill can land
			// mid-commit, in which case some rank has no manifest).
			var mem *iosim.MemFS
			var out *Result
		scan:
			for r := len(counts) - 1; r >= 0; r-- {
				for k := counts[r] - 1; k >= 1; k-- {
					m := iosim.NewMemFS()
					_, err := Run(res.Program, mach, Options{FS: m, Fill: sweepFills(), Checkpoint: ckpt, Faults: []mp.Fault{outage(r, k)}})
					if err == nil {
						continue // the outage never reached a failing operation; kill earlier
					}
					// The LAF files must survive the failure (they are the
					// restart state), unlike the non-checkpointed error path.
					if len(m.Names()) == 0 {
						t.Fatalf("rank %d op %d: checkpointed failure must keep its files for Resume", r, k)
					}
					// Resume against the recovered store (the outage is
					// over, the files are intact).
					o, err := Run(res.Program, mach, Options{FS: m, Fill: sweepFills(), Checkpoint: ckpt, Resume: true})
					if errors.Is(err, ErrNoCheckpoint) {
						continue // killed before the first commit
					}
					if err != nil {
						t.Fatalf("rank %d op %d: Resume: %v", r, k, err)
					}
					mem, out = m, o
					break scan
				}
			}
			if out == nil {
				t.Fatal("no kill point produced a resumable checkpoint")
			}
			got, err := out.ReadArray("c")
			if err != nil {
				t.Fatal(err)
			}
			if err := matricesIdentical(got, want); err != nil {
				t.Fatalf("resumed run diverged from uninterrupted run: %v", err)
			}
			// Close removes data and checkpoint artifacts.
			if err := out.Close(); err != nil {
				t.Fatal(err)
			}
			if names := mem.Names(); len(names) != 0 {
				t.Fatalf("Close left files behind: %v", names)
			}
		})
	}
}

// TestResumeSweepEveryKillPoint hardens acceptance (b): for a sweep of
// kill points across the whole run, every killed execution either resumes
// to the bitwise-correct result or reports ErrNoCheckpoint (killed before
// the first commit), in which case a fresh run completes.
func TestResumeSweepEveryKillPoint(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	want := baselineC(t, res)
	mach := sim.Delta(res.Program.Procs)
	ckpt := &CheckpointSpec{Every: 1}

	counts := fileOps(t, res.Program, mach, Options{Fill: sweepFills(), Checkpoint: ckpt})

	resumed, restarted, pairs := 0, 0, 0
	for r, c := range counts {
		for k := int64(0); k < c; k++ {
			pairs++
			if err := resumeAfterOutage(t, res, want, ckpt, r, k); err != nil {
				restarted++
			} else {
				resumed++
			}
		}
	}
	if resumed == 0 {
		t.Fatalf("no kill point exercised an actual resume (resumed=%d restarted=%d)", resumed, restarted)
	}
	t.Logf("%d (rank, op) outages over file-op counts %v", pairs, counts)
}

// resumeAfterOutage kills a checkpointed run with an outage of rank r's
// file operations from op k on, resumes it (or, killed before the first
// commit, restarts it) and requires the final C to be want. It returns
// ErrNoCheckpoint when the run restarted; an outage that never fails the
// run counts as a resume.
func resumeAfterOutage(t *testing.T, res *compiler.Result, want *matrix.Matrix, ckpt *CheckpointSpec, r int, k int64) error {
	t.Helper()
	mach := sim.Delta(res.Program.Procs)
	mem := iosim.NewMemFS()
	out, err := Run(res.Program, mach, Options{FS: mem, Fill: sweepFills(), Checkpoint: ckpt, Faults: []mp.Fault{outage(r, k)}})
	var restarted error
	if err != nil {
		out, err = Run(res.Program, mach, Options{FS: mem, Fill: sweepFills(), Checkpoint: ckpt, Resume: true})
		if errors.Is(err, ErrNoCheckpoint) {
			// Killed before the first commit: restart from scratch.
			restarted = err
			out, err = Run(res.Program, mach, Options{FS: iosim.NewMemFS(), Fill: sweepFills(), Checkpoint: ckpt})
		}
		if err != nil {
			t.Fatalf("rank %d op %d: recovery failed: %v", r, k, err)
		}
	}
	got, err := out.ReadArray("c")
	if err != nil {
		t.Fatalf("rank %d op %d: %v", r, k, err)
	}
	if err := matricesIdentical(got, want); err != nil {
		t.Fatalf("rank %d op %d: recovered run diverged: %v", r, k, err)
	}
	return restarted
}

// TestChaosIndependentOfScheduling: drawn faults are keyed on the rank
// that issues each file operation and on its own count of them, so a
// parity-protected chaos run — whose parity files every rank writes —
// gives the same statistics, the same injected counts and the same
// outcome whatever the host's scheduling, failing runs included. It is
// ooc-run -n 64 -parity -chaos 0.03 -retries 1 -chaos-seed S over seeds
// 1-12, each under GOMAXPROCS=1 and NumCPU, and the same with
// -chaos-corrupt 0.02. Parity blocks carry checksums like data blocks,
// so no corruption reaches a result: a corrupt run that finishes gives
// the fault-free C.
func TestChaosIndependentOfScheduling(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: 64, Procs: 4, MemElems: 1 << 15, Policy: compiler.PolicyWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	mach := sim.Delta(res.Program.Procs)
	wantC := baselineC(t, res)
	var corruptions int64 // injected over a configuration's sweep
	run := func(cfg iosim.ChaosConfig, threads int) (string, bool) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
		policy := iosim.DefaultRetryPolicy()
		policy.MaxRetries = 1
		out, err := Run(res.Program, mach, Options{
			Fill: sweepFills(), Parity: true, Resilience: iosim.NewResilience(policy), Chaos: cfg,
		})
		if err != nil {
			return "", false
		}
		defer out.Close()
		corruptions += out.Chaos.Corruptions
		got, err := out.ReadArray("c")
		if err != nil {
			t.Fatal(err)
		}
		if err := matricesIdentical(got, wantC); err != nil {
			t.Errorf("%+v: a finished run computed a wrong C: %v", cfg, err)
		}
		snap, err := json.Marshal(out.Stats.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s %+v", snap, out.Chaos), true
	}
	for _, pCorrupt := range []float64{0, 0.02} {
		failed := 0
		corruptions = 0
		for seed := int64(1); seed <= 12; seed++ {
			cfg := iosim.ChaosConfig{Seed: seed, PTransient: 0.03, PCorrupt: pCorrupt}
			want, ok := run(cfg, 1)
			if !ok {
				failed++
			}
			got, gotOK := run(cfg, runtime.NumCPU())
			if gotOK != ok {
				t.Errorf("%+v: the run succeeded under GOMAXPROCS=1: %v, under %d: %v", cfg, ok, runtime.NumCPU(), gotOK)
			} else if got != want {
				t.Errorf("%+v: statistics differ between GOMAXPROCS=1 and %d\ngot  %s\nwant %s", cfg, runtime.NumCPU(), got, want)
			}
		}
		if failed == 12 {
			t.Fatalf("corruption %v: every seed failed: the sweep checks no statistics", pCorrupt)
		}
		if pCorrupt > 0 && corruptions == 0 {
			t.Fatal("the corrupt sweep's finished runs injected no corruption")
		}
		t.Logf("corruption %v: %d of 12 seeds fail their run; the others injected %d corruptions", pCorrupt, failed, corruptions)
	}
}

// TestCheckpointedRunAbsorbsATransientFault lands one transient fault on
// each file operation of a checkpointed run's rank in turn — array,
// snapshot and manifest operations alike — and requires every run to
// retry it and finish with the fault-free result.
func TestCheckpointedRunAbsorbsATransientFault(t *testing.T) {
	res := chaosProgram(t, "row-slab")
	want := baselineC(t, res)
	mach := sim.Delta(res.Program.Procs)
	ckpt := &CheckpointSpec{Every: 1}
	const rank = 1
	opts := Options{Fill: sweepFills(), Checkpoint: ckpt, Resilience: iosim.NewResilience(iosim.DefaultRetryPolicy())}
	ops := fileOps(t, res.Program, mach, opts)[rank]
	for k := int64(0); k < ops; k++ {
		o := opts
		o.Resilience = iosim.NewResilience(iosim.DefaultRetryPolicy())
		o.Faults = []mp.Fault{{Rank: rank, Op: k, Kind: mp.IOTransient}}
		out, err := Run(res.Program, mach, o)
		if err != nil {
			t.Fatalf("a transient fault at rank %d's file op %d failed the run: %v", rank, k, err)
		}
		if out.Chaos.Transient != 1 {
			t.Fatalf("op %d: injected %+v, want one transient fault", k, out.Chaos)
		}
		got, err := out.ReadArray("c")
		if err != nil {
			t.Fatal(err)
		}
		if err := matricesIdentical(got, want); err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		out.Close()
	}
}

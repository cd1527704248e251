package exec

import (
	"errors"
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
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

			chaos := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{
				Seed: 1, PTransient: 0.03,
			})
			out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
				FS:         chaos,
				Fill:       sweepFills(),
				Resilience: iosim.NewResilience(iosim.RetryPolicy{MaxRetries: 12, BaseBackoff: 1e-3, MaxBackoff: 8e-3}),
			})
			if err != nil {
				t.Fatalf("transient faults must be absorbed by retries: %v", err)
			}
			if c := chaos.Counts(); c.Transient == 0 {
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

	chaos := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{
		Seed: 5, PCorrupt: 0.05,
	})
	out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
		FS:         chaos,
		Fill:       sweepFills(),
		Resilience: iosim.NewResilience(iosim.RetryPolicy{MaxRetries: 12, BaseBackoff: 1e-3, MaxBackoff: 8e-3}),
	})
	if err != nil {
		t.Fatalf("read-path corruption must be repaired by retry: %v", err)
	}
	if c := chaos.Counts(); c.Corruptions == 0 {
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

			// Measure the op count of an uninterrupted checkpointed run.
			probe := iosim.NewFaultFS(iosim.NewMemFS(), 1<<30, nil)
			if _, err := Run(res.Program, mach, Options{FS: probe, Fill: sweepFills(), Checkpoint: ckpt}); err != nil {
				t.Fatal(err)
			}
			total := 1<<30 - probe.Remaining()

			// Kill near the end: every operation past the budget fails
			// permanently, on all processors at once. Scan downward from
			// the full budget for the latest kill point that both fails
			// the run and leaves a committed checkpoint behind (a kill can
			// land mid-commit, in which case some rank has no manifest).
			var mem *iosim.MemFS
			var out *Result
			for k := total - 1; k >= 1; k-- {
				m := iosim.NewMemFS()
				killed := iosim.NewFaultFS(m, k, nil)
				_, err := Run(res.Program, mach, Options{FS: killed, Fill: sweepFills(), Checkpoint: ckpt})
				if err == nil {
					continue // budget k sufficed; kill earlier
				}
				// The LAF files must survive the failure (they are the
				// restart state), unlike the non-checkpointed error path.
				if len(m.Names()) == 0 {
					t.Fatalf("k=%d: checkpointed failure must keep its files for Resume", k)
				}
				// Resume against the recovered store (the transient outage
				// is over: the wrapper is gone, the files are intact).
				r, err := Run(res.Program, mach, Options{FS: m, Fill: sweepFills(), Checkpoint: ckpt, Resume: true})
				if errors.Is(err, ErrNoCheckpoint) {
					continue // killed before the first commit
				}
				if err != nil {
					t.Fatalf("k=%d: Resume: %v", k, err)
				}
				mem, out = m, r
				break
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

	probe := iosim.NewFaultFS(iosim.NewMemFS(), 1<<30, nil)
	if _, err := Run(res.Program, mach, Options{FS: probe, Fill: sweepFills(), Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	total := 1<<30 - probe.Remaining()

	step := total / 16
	if step < 1 {
		step = 1
	}
	resumed, restarted := 0, 0
	for k := 1; k < total; k += step {
		mem := iosim.NewMemFS()
		killed := iosim.NewFaultFS(mem, k, nil)
		if _, err := Run(res.Program, mach, Options{FS: killed, Fill: sweepFills(), Checkpoint: ckpt}); err == nil {
			continue // budget k happened to suffice
		}
		out, err := Run(res.Program, mach, Options{FS: mem, Fill: sweepFills(), Checkpoint: ckpt, Resume: true})
		switch {
		case err == nil:
			resumed++
		case errors.Is(err, ErrNoCheckpoint):
			// Killed before the first commit: restart from scratch.
			restarted++
			out, err = Run(res.Program, mach, Options{FS: iosim.NewMemFS(), Fill: sweepFills(), Checkpoint: ckpt})
			if err != nil {
				t.Fatalf("k=%d: fresh restart failed: %v", k, err)
			}
		default:
			t.Fatalf("k=%d: Resume failed with %v", k, err)
		}
		got, err := out.ReadArray("c")
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := matricesIdentical(got, want); err != nil {
			t.Fatalf("k=%d: recovered run diverged: %v", k, err)
		}
	}
	if resumed == 0 {
		t.Fatalf("no kill point exercised an actual resume (resumed=%d restarted=%d)", resumed, restarted)
	}
}

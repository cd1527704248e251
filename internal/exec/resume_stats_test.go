package exec

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
)

// statsJSON renders a run's statistics snapshot; bitwise-identical runs
// produce byte-identical JSON (encoding/json float64 round-trips are
// exact).
func statsJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r.Stats.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// resumeStatsProgram compiles one of the crash-matrix programs.
func resumeStatsProgram(t *testing.T, source, force string) *compiler.Result {
	t.Helper()
	res, err := compiler.CompileSource(source,
		compiler.Options{N: 32, Procs: 4, MemElems: 300, Force: force})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResumeRestoreStatsBitwise: a checkpointed run cancelled at a
// deterministic mid-run commit boundary (CkptHook) and resumed with
// RestoreStats reports final statistics bitwise identical to the
// uninterrupted run — the property the serving layer's crash-restart
// gate builds on. Swept over crash epochs and over the GAXPY (loop
// checkpoints) and transpose (statement-boundary checkpoint) programs.
func TestResumeRestoreStatsBitwise(t *testing.T) {
	sources := map[string]string{"gaxpy": hpf.GaxpySource, "transpose": hpf.TransposeSource}
	for name, source := range sources {
		t.Run(name, func(t *testing.T) {
			res := resumeStatsProgram(t, source, "")
			mach := sim.Delta(res.Program.Procs)
			ckpt := &CheckpointSpec{Every: 2}

			// Uninterrupted reference run, counting committed epochs.
			epochs := 0
			ref, err := Run(res.Program, mach, Options{
				FS: iosim.NewMemFS(), Fill: sweepFills(), Checkpoint: ckpt,
				CkptHook: func(int) { epochs++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			want := statsJSON(t, ref)
			wantC, err := ref.ReadArray(res.Program.Arrays[len(res.Program.Arrays)-1].Name)
			if err != nil {
				t.Fatal(err)
			}
			if epochs == 0 {
				t.Fatal("reference run committed no checkpoints")
			}

			resumedSomewhere := false
			for crashAt := 0; crashAt < epochs; crashAt++ {
				mem := iosim.NewMemFS()
				ctx, cancel := context.WithCancel(context.Background())
				_, err := RunCtx(ctx, res.Program, mach, Options{
					FS: mem, Fill: sweepFills(), Checkpoint: ckpt,
					CkptHook: func(epoch int) {
						if epoch == crashAt {
							cancel()
						}
					},
				})
				cancel()
				if err == nil {
					// The cancel landed after the last node boundary; the
					// run completed. Nothing to resume.
					continue
				}
				out, err := Run(res.Program, mach, Options{
					FS: mem, Fill: sweepFills(), Checkpoint: ckpt, Resume: true, RestoreStats: true,
				})
				if err != nil {
					t.Fatalf("crashAt=%d: resume: %v", crashAt, err)
				}
				resumedSomewhere = true
				if got := statsJSON(t, out); got != want {
					t.Fatalf("crashAt=%d: resumed stats diverged\n got %s\nwant %s", crashAt, got, want)
				}
				gotC, err := out.ReadArray(res.Program.Arrays[len(res.Program.Arrays)-1].Name)
				if err != nil {
					t.Fatalf("crashAt=%d: %v", crashAt, err)
				}
				if err := matricesIdentical(gotC, wantC); err != nil {
					t.Fatalf("crashAt=%d: resumed result diverged: %v", crashAt, err)
				}
			}
			if !resumedSomewhere {
				t.Fatal("no crash epoch exercised an actual resume")
			}
		})
	}
}

// TestResumeRestoreStatsTwice: two successive crashes (the second during
// the resumed run) still land on bitwise-identical final statistics —
// restarted servers can crash again.
func TestResumeRestoreStatsTwice(t *testing.T) {
	// column-slab checkpoints every SumStore iteration, giving the
	// epoch density a double crash needs.
	res := resumeStatsProgram(t, hpf.GaxpySource, "column-slab")
	mach := sim.Delta(res.Program.Procs)
	ckpt := &CheckpointSpec{Every: 1}

	epochs := 0
	ref, err := Run(res.Program, mach, Options{
		FS: iosim.NewMemFS(), Fill: sweepFills(), Checkpoint: ckpt,
		CkptHook: func(int) { epochs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := statsJSON(t, ref)
	if epochs < 4 {
		t.Fatalf("need at least 4 epochs for a double crash, have %d", epochs)
	}

	mem := iosim.NewMemFS()
	crash := func(at int, resume bool) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := Options{
			FS: mem, Fill: sweepFills(), Checkpoint: ckpt, RestoreStats: true,
			CkptHook: func(epoch int) {
				if epoch == at {
					cancel()
				}
			},
		}
		opts.Resume = resume
		_, err := RunCtx(ctx, res.Program, mach, opts)
		return err
	}
	if err := crash(1, false); err == nil {
		t.Fatal("first crash did not interrupt the run")
	}
	if err := crash(epochs-1, true); err == nil {
		t.Fatal("second crash did not interrupt the resumed run")
	}
	out, err := Run(res.Program, mach, Options{
		FS: mem, Fill: sweepFills(), Checkpoint: ckpt, Resume: true, RestoreStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := statsJSON(t, out); got != want {
		t.Fatalf("double-crash resume diverged\n got %s\nwant %s", got, want)
	}
}

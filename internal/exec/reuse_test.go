package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// A lowered plan keeps its runs' rank state (kit.go) and the machine its
// runs' machines (mp.RunOpts); these tests pin that the reuse is
// invisible: every run on a used Lowered shows a caller what the same run
// on a freshly lowered plan shows.

// outcome renders what a run shows a caller: statistics, per-array
// statistics, the output array (real runs) and whether its spans replay
// to its statistics (traced runs).
func outcome(out *Result, tr *trace.Tracer) (string, error) {
	var b strings.Builder
	stats, err := json.Marshal(out.Stats)
	if err != nil {
		return "", err
	}
	perArray, err := json.Marshal(out.PerArray)
	if err != nil {
		return "", err
	}
	b.Write(stats)
	b.Write(perArray)
	if !out.phantom {
		c, err := out.ReadArray("c")
		if err != nil {
			return "", err
		}
		fmt.Fprint(&b, c.Data)
	}
	if tr != nil {
		if err := trace.Reconcile(tr.Spans(), out.Stats, out.PerArray); err != nil {
			return "", fmt.Errorf("spans do not reconcile: %w", err)
		}
		b.WriteString(" reconciled")
	}
	return b.String(), nil
}

// reuseScenario is one kind of run of the plan, returning what each of
// its results showed, closed as a caller would close them.
type reuseScenario struct {
	name string
	run  func(l *Lowered) ([]string, error)
}

// reuseScenarios are the runs of TestLoweredReuseIsInvisible, in order:
// clean, traced, phantom, a real-data run right after it, a run with
// resilience and parity after that plain one, a run on the caller's file
// system between two on private ones, a killed rank survived from
// checkpoint+parity and then a resume of what it left, a run cancelled
// mid-loop, and a clean run again. Each runs on the disks, arrays and
// file records the one before it left. killOp is rank 1's kill point;
// cancelAt is the file operation of rank 0 that cancels.
func reuseScenarios(killOp, cancelAt int64) []reuseScenario {
	mach := sim.Delta(4)
	plain := func(l *Lowered, opts Options) ([]string, error) {
		rr, err := RunLowered(context.Background(), l, mach, opts)
		if err != nil {
			return nil, err
		}
		o, err := outcome(rr, opts.Trace)
		if cerr := rr.Close(); err == nil {
			err = cerr
		}
		return []string{o}, err
	}
	clean := reuseScenario{"clean", func(l *Lowered) ([]string, error) {
		return plain(l, Options{Fill: sweepFills()})
	}}
	return []reuseScenario{
		clean,
		{"traced", func(l *Lowered) ([]string, error) {
			return plain(l, Options{Fill: sweepFills(), Trace: trace.NewTracer(4)})
		}},
		{"phantom", func(l *Lowered) ([]string, error) {
			return plain(l, Options{Phantom: true})
		}},
		{"real after phantom", clean.run},
		{"resilience+parity after plain", func(l *Lowered) ([]string, error) {
			return plain(l, Options{Fill: sweepFills(), Resilience: parityResilience(), Parity: true})
		}},
		{"caller's file system", func(l *Lowered) ([]string, error) {
			fs := iosim.NewMemFS()
			got, err := plain(l, Options{FS: fs, Fill: sweepFills()})
			if names := fs.Names(); err == nil && len(names) > 0 {
				err = fmt.Errorf("Close left %v on the caller's file system", names)
			}
			return got, err
		}},
		{"private file system again", clean.run},
		{"kill+resume", func(l *Lowered) ([]string, error) {
			opts := surviveOptions(iosim.NewMemFS())
			opts.Faults = []mp.Fault{{Rank: 1, Op: killOp}}
			opts.Trace = trace.NewTracer(4)
			rr, err := RunLowered(context.Background(), l, mach, opts)
			if err != nil {
				return nil, err
			}
			if len(rr.Recoveries) != 1 {
				return nil, fmt.Errorf("%d recoveries, want 1", len(rr.Recoveries))
			}
			rec := rr.Recoveries[0]
			var got []string
			if err := trace.Reconcile(rec.Trace.Spans(), rec.Stats, rec.PerArray); err != nil {
				return nil, fmt.Errorf("aborted attempt: %w", err)
			}
			aborted, err := json.Marshal([]any{rec.Stats, rec.PerArray, rec.RebuildIO})
			if err != nil {
				return nil, err
			}
			got = append(got, string(aborted))
			o, err := outcome(rr, rr.Trace)
			if err != nil {
				return nil, err
			}
			got = append(got, o)
			// The recovered run's checkpoints are still on disk: resume
			// from the last of them.
			ropts := surviveOptions(opts.FS)
			ropts.Resilience, ropts.Resume, ropts.RestoreStats = opts.Resilience, true, true
			resumed, err := RunLowered(context.Background(), l, mach, ropts)
			if err != nil {
				return nil, err
			}
			o, err = outcome(resumed, nil)
			if err != nil {
				return nil, err
			}
			got = append(got, o)
			return got, errors.Join(resumed.Close(), rr.Close())
		}},
		{"cancelled", func(l *Lowered) ([]string, error) {
			ctx, fs := cancelAtOp(cancelAt)
			fs.only = ".p0."
			_, err := RunLowered(ctx, l, mach, Options{FS: fs, Fill: sweepFills()})
			if !errors.Is(err, context.Canceled) {
				return nil, fmt.Errorf("the run was to be cancelled at rank 0's file operation %d: %v", cancelAt, err)
			}
			return []string{"cancelled"}, nil
		}},
		clean,
	}
}

// kitsFree is the number of kits on l's free list.
func kitsFree(l *Lowered) int {
	l.kits.mu.Lock()
	defer l.kits.mu.Unlock()
	return len(l.kits.free)
}

// TestLoweredReuseIsInvisible runs one Lowered through every kind of run
// in turn, each on the rank state and the machine the previous ones left,
// and holds every result to the same run on a freshly lowered plan; then
// two runs at once on the one Lowered; then a double Close, which must
// give the kit back once and leave the next run's files alone.
func TestLoweredReuseIsInvisible(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 32, Procs: 4, MemElems: 300, Force: "row-slab"})
	if err != nil {
		t.Fatal(err)
	}
	counts := probeOpCounts(t, res)
	ops, probe := cancelAtOp(0)
	probe.only = ".p0."
	if _, err := RunCtx(ops, res.Program, sim.Delta(4), Options{FS: probe, Fill: sweepFills()}); err != nil {
		t.Fatal(err)
	}
	scenarios := reuseScenarios(counts[1]/2, probe.ops.Load()/2)
	lower := func() *Lowered {
		l, err := Lower(res.Program)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	used := lower()
	var clean string
	for _, s := range scenarios {
		want, err := s.run(lower())
		if err != nil {
			t.Fatalf("%s on a fresh plan: %v", s.name, err)
		}
		got, err := s.run(used)
		if err != nil {
			t.Fatalf("%s on the used plan: %v", s.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results on the used plan, %d on a fresh one", s.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: result %d on the used plan differs from a fresh plan's:\n got %.300s\nwant %.300s", s.name, i, got[i], want[i])
			}
		}
		if s.name == "clean" {
			clean = want[0]
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := scenarios[0].run(used)
			if err != nil {
				t.Errorf("concurrent run %d: %v", g, err)
			} else if got[0] != clean {
				t.Errorf("concurrent run %d differs from a clean run on a fresh plan", g)
			}
		}()
	}
	wg.Wait()

	rr, err := RunLowered(context.Background(), used, sim.Delta(4), Options{Fill: sweepFills()})
	if err != nil {
		t.Fatal(err)
	}
	before := kitsFree(used)
	if err := rr.Close(); err != nil {
		t.Fatalf("Close 1: %v", err)
	}
	// The next run takes the private store the first Close gave back, so
	// a second Close of the first result must leave that store alone.
	next, err := RunLowered(context.Background(), used, sim.Delta(4), Options{Fill: sweepFills()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Close(); err != nil {
		t.Fatalf("Close 2: %v", err)
	}
	if _, err := rr.ReadArray("c"); err == nil {
		t.Fatal("a closed result still reads arrays")
	}
	if _, err := next.ReadArray("c"); err != nil {
		t.Fatalf("a second Close of a result removed the next run's files: %v", err)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	if after := kitsFree(used); after != before+1 {
		t.Fatalf("two Closes of one result and one of the next left %d kits on the free list, want %d", after, before+1)
	}
	if rr.PerArray != nil {
		t.Fatal("a closed result still shows the per-array statistics it gave back")
	}
}

// scalePhantomAllocs bounds the allocation count of the second run of
// the scale_phantom benchmark's job on one Lowered (GAXPY N=512, P=64,
// phantom): measured at 356-363 with Go 1.24 on linux/amd64, depending on
// which tests ran before it. The run's private file system is the plan's
// from the first run on, so its name map is not grown again.
const scalePhantomAllocs = 366

// TestSecondScalePhantomRunAllocs pins the allocations of a served
// scale_phantom job's run once its plan has run before: what is left is
// the run's own statistics, its file system and one handle per file, and
// the rank goroutines.
func TestSecondScalePhantomRunAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops Puts, so pooled storage is made again")
	}
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 512, Procs: 64, MemElems: 16 * 512})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		rr, err := RunLowered(ctx, l, sim.Delta(64), Options{Phantom: true})
		if err != nil {
			runErr = err
			return
		}
		runErr = rr.Close()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("a second run allocates %v times", allocs)
	if allocs > scalePhantomAllocs {
		t.Errorf("a second scale_phantom run allocates %v times, pinned at %d", allocs, scalePhantomAllocs)
	}
}

package exec

import (
	"encoding/json"
	"slices"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// reconcileScenario compiles one program and describes how to run it; the
// matrix below asserts the keystone property for each: the span timeline
// replays to the accounted per-processor statistics exactly, to the digit.
type reconcileScenario struct {
	name    string
	source  string
	copts   compiler.Options
	runtime oocarray.Options // set on the compiled plan
	fills   map[string]func(int, int) float64
	options Options // Trace filled in by the test
	resume  bool    // kill the run mid-flight, then reconcile the Resume
}

func gaxpyScenarioOpts(force string) compiler.Options {
	return compiler.Options{N: 32, Procs: 4, MemElems: 300, Force: force}
}

// transientChaos draws transient faults and read-path corruption.
var transientChaos = iosim.ChaosConfig{Seed: 1, PTransient: 0.03, PCorrupt: 0.01}

func retryResilience() *iosim.Resilience {
	return iosim.NewResilience(iosim.RetryPolicy{MaxRetries: 12, BaseBackoff: 1e-3, MaxBackoff: 8e-3})
}

// reconcileScenarios is the matrix of programs, execution strategies,
// runtime reorganizations and fault modes both tests below run. Each call
// builds fresh file systems, so a chaos schedule starts over.
func reconcileScenarios() []reconcileScenario {
	stencilFill := map[string]func(int, int) float64{"x": shiftFillX}
	transposeFill := map[string]func(int, int) float64{
		"a": func(gi, gj int) float64 { return float64(gi*64 + gj + 1) },
	}
	ewiseFill := map[string]func(int, int) float64{"x": fillX, "y": fillY}

	return []reconcileScenario{
		{
			name:    "gaxpy/row-slab",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{},
		},
		{
			name:    "gaxpy/column-slab/sieve",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			runtime: oocarray.Options{Sieve: true},
			fills:   sweepFills(),
		},
		{
			name:    "gaxpy/row-slab/prefetch-writebehind",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			runtime: oocarray.Options{Prefetch: true, WriteBehind: true},
			fills:   sweepFills(),
		},
		{
			name:    "gaxpy/phantom",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			options: Options{Phantom: true},
		},
		{
			name:   "gaxpy/chaos-transient",
			source: hpf.GaxpySource,
			copts:  gaxpyScenarioOpts("row-slab"),
			fills:  sweepFills(),
			options: Options{
				Chaos:      transientChaos,
				Resilience: retryResilience(),
			},
		},
		{
			name:    "gaxpy/parity",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			fills:   sweepFills(),
			options: Options{Resilience: parityResilience(), Parity: true},
		},
		{
			name:   "gaxpy/parity/disk-loss",
			source: hpf.GaxpySource,
			copts:  gaxpyScenarioOpts("row-slab"),
			fills:  sweepFills(),
			options: Options{
				Resilience: parityResilience(),
				Parity:     true,
				Faults:     rank1Loss(),
			},
		},
		{
			// Lost during the input fills: the fills and the
			// reconstructions they trigger are unaccounted alike.
			name:   "gaxpy/parity/disk-loss-in-fill",
			source: hpf.GaxpySource,
			copts:  gaxpyScenarioOpts("column-slab"),
			fills:  sweepFills(),
			options: Options{
				Resilience: parityResilience(),
				Parity:     true,
				Faults:     []mp.Fault{{Rank: 1, Op: 0, Kind: mp.LoseDisk}},
			},
		},
		{
			name:    "gaxpy/checkpoint",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
		},
		{
			name:    "gaxpy/checkpoint-resume",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
			resume:  true,
		},
		{
			name:    "stencil/shift-exchange",
			source:  shiftSource,
			copts:   compiler.Options{N: 32, Procs: 4, MemElems: 32 * 4},
			fills:   stencilFill,
			options: Options{},
		},
		{
			name:    "transpose/direct",
			source:  hpf.TransposeSource,
			copts:   compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "direct"},
			fills:   transposeFill,
			options: Options{},
		},
		{
			name:    "transpose/two-phase",
			source:  hpf.TransposeSource,
			copts:   compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "two-phase"},
			fills:   transposeFill,
			options: Options{},
		},
		{
			name:    "ewise/multi-statement",
			source:  hpf.EwiseSource,
			copts:   compiler.Options{N: 64, Procs: 4, MemElems: 64 * 8},
			fills:   ewiseFill,
			options: Options{},
		},
	}
}

// TestTraceReconcilesAcrossPrograms is the keystone acceptance test: for
// every scenario, replaying the emitted spans reproduces IOStats and
// CommStats bit-exactly — counts, bytes, and simulated seconds. The
// counters were folded from those very spans, so what fails here is a
// span lost or misrouted on its way out: ring retention, cross-rank
// routing, a stream adopted across recovery attempts.
func TestTraceReconcilesAcrossPrograms(t *testing.T) {
	for _, sc := range reconcileScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			res, err := compiler.CompileSource(sc.source, sc.copts)
			if err != nil {
				t.Fatal(err)
			}
			res.Program.Runtime = sc.runtime
			mach := sim.Delta(res.Program.Procs)
			opts := sc.options
			opts.Fill = sc.fills
			opts.Trace = trace.NewTracer(res.Program.Procs)

			var out *Result
			if sc.resume {
				out = killAndResume(t, res, mach, opts, opts.Trace)[0]
			} else {
				out, err = Run(res.Program, mach, opts)
				if err != nil {
					t.Fatal(err)
				}
			}
			spans := opts.Trace.Spans()
			if len(spans) == 0 {
				t.Fatal("traced run emitted no spans")
			}
			// Reconcile before ReadArray: result readback charges
			// statistics outside the traced execution window.
			if err := trace.Reconcile(spans, out.Stats, out.PerArray); err != nil {
				t.Fatalf("spans do not replay to the accounted statistics:\n%v", err)
			}
		})
	}
}

// killAndResume kills a checkpointed run mid-flight, then resumes one
// copy of its files per tracer given (nil for none) and returns the
// resumed results. The reconciliation then covers the resume path:
// checkpoint restore I/O, epoch skipping, and the remaining execution.
func killAndResume(t *testing.T, res *compiler.Result, mach sim.Config, opts Options, tracers ...*trace.Tracer) []*Result {
	t.Helper()
	counts := fileOps(t, res.Program, mach, opts)
	// The last rank's outage, scanned down from its last file operation.
	r := len(counts) - 1
	for k := counts[r] - 1; k >= 1; k-- {
		mem := iosim.NewMemFS()
		killOpts := opts
		killOpts.Trace = nil
		killOpts.FS = mem
		killOpts.Faults = append(slices.Clone(opts.Faults), outage(r, k))
		if _, err := Run(res.Program, mach, killOpts); err == nil {
			continue // the outage never failed the run; kill earlier
		}
		outs := make([]*Result, len(tracers))
		for i, tr := range tracers {
			resumeOpts := opts
			resumeOpts.FS = copyMemFS(t, mem)
			resumeOpts.Trace = tr
			resumeOpts.Resume = true
			out, err := Run(res.Program, mach, resumeOpts)
			if err != nil {
				break // killed mid-commit or before the first checkpoint
			}
			outs[i] = out
		}
		if outs[len(outs)-1] != nil {
			return outs
		}
	}
	t.Fatal("no kill point produced a resumable checkpoint")
	return nil
}

// copyMemFS copies every file of mem into a new MemFS.
func copyMemFS(t *testing.T, mem *iosim.MemFS) *iosim.MemFS {
	t.Helper()
	cp := iosim.NewMemFS()
	for _, name := range mem.Names() {
		src, err := mem.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, _ := iosim.FileSize(src)
		buf := make([]byte, size)
		if _, err := src.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		dst, err := cp.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		src.Close()
		dst.Close()
	}
	return cp
}

// TestStatsIndependentOfTracer runs every scenario of the reconcile
// matrix with and without a tracer: each run's Stats and PerArray are
// bitwise the same either way, because the counters are folded whether
// or not anything traces.
func TestStatsIndependentOfTracer(t *testing.T) {
	plain := reconcileScenarios()
	for i, sc := range reconcileScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			res, err := compiler.CompileSource(sc.source, sc.copts)
			if err != nil {
				t.Fatal(err)
			}
			res.Program.Runtime = sc.runtime
			mach := sim.Delta(res.Program.Procs)
			tr := trace.NewTracer(res.Program.Procs)
			var outs []*Result
			if sc.resume {
				opts := sc.options
				opts.Fill = sc.fills
				outs = killAndResume(t, res, mach, opts, tr, nil)
			} else {
				for _, run := range []struct {
					sc reconcileScenario
					tr *trace.Tracer
				}{{sc, tr}, {plain[i], nil}} {
					opts := run.sc.options
					opts.Fill = run.sc.fills
					opts.Trace = run.tr
					out, err := Run(res.Program, mach, opts)
					if err != nil {
						t.Fatal(err)
					}
					outs = append(outs, out)
				}
			}
			if len(tr.Spans()) == 0 {
				t.Fatal("traced run emitted no spans")
			}
			traced, untraced := outs[0], outs[1]
			if got, want := statsJSON(t, traced), statsJSON(t, untraced); got != want {
				t.Errorf("statistics differ with a tracer attached:\n traced %s\n  plain %s", got, want)
			}
			if got, want := perArrayJSON(t, traced), perArrayJSON(t, untraced); got != want {
				t.Errorf("per-array statistics differ with a tracer attached:\n traced %s\n  plain %s", got, want)
			}
		})
	}
}

// perArrayJSON renders a run's per-array statistics, every float to the
// bit.
func perArrayJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r.PerArray)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTraceDegradedReconstructionSpans pins the recovery-specific span
// kinds: a parity run that loses a disk emits reconstruction spans, and
// cross-rank recovery gather traffic reconciles into the surviving ranks'
// CommStats — the one place a span is attributed to a rank other than the
// one that executed it.
func TestTraceDegradedReconstructionSpans(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(res.Program.Procs)
	out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
		Fill:       sweepFills(),
		Resilience: parityResilience(),
		Parity:     true,
		Faults:     rank1Loss(),
		Trace:      tr,
	})
	if err != nil {
		t.Fatalf("disk loss must be survived with parity enabled: %v", err)
	}
	kinds := map[trace.Kind]int{}
	for _, s := range tr.Spans() {
		kinds[s.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindReconstruct, trace.KindRecoveryComm, trace.KindParityRMW, trace.KindParitySync} {
		if kinds[k] == 0 {
			t.Errorf("degraded parity run emitted no %v spans (have %v)", k, kinds)
		}
	}
	if err := trace.Reconcile(tr.Spans(), out.Stats, out.PerArray); err != nil {
		t.Fatalf("degraded-mode spans do not replay to the statistics:\n%v", err)
	}
}

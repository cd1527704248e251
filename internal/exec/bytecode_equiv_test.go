package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// bcEquivScenario runs one compiled program twice — tree walk and
// bytecode — under identical options and demands bitwise-identical
// observable behavior.
type bcEquivScenario struct {
	name    string
	source  string
	copts   compiler.Options
	fills   map[string]func(int, int) float64
	options Options // Trace and Bytecode filled in per run
	outputs []string
	resume  string // "", "bc-resumes-tree", "tree-resumes-bc"
}

func bcEquivScenarios() []bcEquivScenario {
	transposeFill := map[string]func(int, int) float64{
		"a": func(gi, gj int) float64 { return float64(gi*64 + gj + 1) },
	}
	return []bcEquivScenario{
		{
			name:    "gaxpy/row-slab",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/column-slab/sieve",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			fills:   sweepFills(),
			options: Options{Runtime: oocarray.Options{Sieve: true}},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/row-slab/prefetch-writebehind",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{Runtime: oocarray.Options{Prefetch: true, WriteBehind: true}},
			outputs: []string{"c"},
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
				FS:         nil, // fresh chaos FS per run, same seed
				Resilience: nil,
			},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/parity",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			fills:   sweepFills(),
			options: Options{Parity: true},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/checkpoint",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/tree-ckpt-bytecode-resume",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
			outputs: []string{"c"},
			resume:  "bc-resumes-tree",
		},
		{
			name:    "gaxpy/bytecode-ckpt-tree-resume",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
			outputs: []string{"c"},
			resume:  "tree-resumes-bc",
		},
		{
			name:    "stencil/shift-exchange",
			source:  shiftSource,
			copts:   compiler.Options{N: 32, Procs: 4, MemElems: 32 * 4},
			fills:   map[string]func(int, int) float64{"x": shiftFillX},
			outputs: []string{"z"},
		},
		{
			name:    "transpose/direct",
			source:  hpf.TransposeSource,
			copts:   compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "direct"},
			fills:   transposeFill,
			outputs: []string{"b"},
		},
		{
			name:    "transpose/two-phase",
			source:  hpf.TransposeSource,
			copts:   compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "two-phase"},
			fills:   transposeFill,
			outputs: []string{"b"},
		},
		{
			name:    "ewise/multi-statement",
			source:  hpf.EwiseSource,
			copts:   compiler.Options{N: 64, Procs: 4, MemElems: 64 * 8},
			fills:   map[string]func(int, int) float64{"x": fillX, "y": fillY},
			outputs: []string{"w", "z"},
		},
	}
}

// scenarioOpts builds one run's Options, creating fresh per-run state
// (FS, tracer) so the two runs cannot share mutable state.
func (sc *bcEquivScenario) runOpts(procs int) Options {
	opts := sc.options
	opts.Fill = sc.fills
	opts.Trace = trace.NewTracer(procs)
	if sc.name == "gaxpy/chaos-transient" {
		opts.FS = transientChaosFS(1)
		opts.Resilience = retryResilience()
	}
	if opts.Parity {
		opts.Resilience = parityResilience()
	}
	return opts
}

// TestBytecodeMatchesTreeAcrossScenarios is the tentpole acceptance
// gate: for every kernel and fault mode, the compiled opcode stream and
// the plan-tree walk produce bitwise-identical simulated time, identical
// I/O statistics, bitwise-identical output arrays, and a span timeline
// that reconciles exactly. The bytecode path is an implementation swap,
// not a semantic one.
func TestBytecodeMatchesTreeAcrossScenarios(t *testing.T) {
	for _, sc := range bcEquivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			res, err := compiler.CompileSource(sc.source, sc.copts)
			if err != nil {
				t.Fatal(err)
			}
			bc, err := bytecode.Compile(res.Program)
			if err != nil {
				t.Fatalf("bytecode compile: %v", err)
			}
			mach := sim.Delta(res.Program.Procs)

			var tree, bcout *Result
			switch sc.resume {
			case "":
				topts := sc.runOpts(res.Program.Procs)
				tree, err = Run(res.Program, mach, topts)
				if err != nil {
					t.Fatalf("tree run: %v", err)
				}
				if err := trace.Reconcile(topts.Trace.Spans(), tree.Stats, tree.PerArray); err != nil {
					t.Fatalf("tree spans do not reconcile:\n%v", err)
				}
				bopts := sc.runOpts(res.Program.Procs)
				bopts.Bytecode = bc
				bcout, err = Run(res.Program, mach, bopts)
				if err != nil {
					t.Fatalf("bytecode run: %v", err)
				}
				if err := trace.Reconcile(bopts.Trace.Spans(), bcout.Stats, bcout.PerArray); err != nil {
					t.Fatalf("bytecode spans do not reconcile:\n%v", err)
				}
				compareSpanShapes(t, topts.Trace.Spans(), bopts.Trace.Spans())
			case "bc-resumes-tree":
				tree = killAndResumeBC(t, res, mach, sc, nil, bc)
				bcout = killAndResumeBC(t, res, mach, sc, bc, bc)
			case "tree-resumes-bc":
				tree = killAndResumeBC(t, res, mach, sc, nil, nil)
				bcout = killAndResumeBC(t, res, mach, sc, bc, nil)
			}

			tt, bt := tree.Stats.ElapsedSeconds(), bcout.Stats.ElapsedSeconds()
			if tt != bt {
				t.Errorf("simulated time differs: tree %.12f vs bytecode %.12f", tt, bt)
			}
			tio, bio := tree.Stats.TotalIO(), bcout.Stats.TotalIO()
			if tio != bio {
				t.Errorf("I/O statistics differ:\ntree     %+v\nbytecode %+v", tio, bio)
			}
			for _, name := range sc.outputs {
				tm, err := tree.ReadArray(name)
				if err != nil {
					t.Fatal(err)
				}
				bm, err := bcout.ReadArray(name)
				if err != nil {
					t.Fatal(err)
				}
				if !matrix.Equal(tm, bm) {
					t.Errorf("array %q differs between tree and bytecode", name)
				}
			}
		})
	}
}

// compareSpanShapes checks the two timelines are the same sequence of
// (kind, label, start, dur) — the bytecode run emits spans at exactly
// the tree walk's op boundaries.
func compareSpanShapes(t *testing.T, tree, bc []trace.Span) {
	t.Helper()
	if len(tree) != len(bc) {
		t.Errorf("span counts differ: tree %d vs bytecode %d", len(tree), len(bc))
		return
	}
	for i := range tree {
		a, b := tree[i], bc[i]
		if a.Kind != b.Kind || a.Label != b.Label || a.Start != b.Start || a.Dur != b.Dur || a.N != b.N {
			t.Errorf("span %d differs:\ntree     %+v\nbytecode %+v", i, a, b)
			return
		}
	}
}

// killAndResumeBC kills a checkpointed run mid-flight and resumes it,
// with independently selectable dispatch (tree or bytecode) for the
// initial run and the resume. Cross-dispatch resume proves the two
// engines write and read interchangeable checkpoints.
func killAndResumeBC(t *testing.T, res *compiler.Result, mach sim.Config, sc bcEquivScenario, runBC, resumeBC *bytecode.Program) *Result {
	t.Helper()
	probe := iosim.NewFaultFS(iosim.NewMemFS(), 1<<30, nil)
	probeOpts := sc.runOpts(res.Program.Procs)
	probeOpts.Trace = nil
	probeOpts.FS = probe
	probeOpts.Bytecode = runBC
	if _, err := Run(res.Program, mach, probeOpts); err != nil {
		t.Fatal(err)
	}
	total := 1<<30 - probe.Remaining()

	for k := total * 2 / 3; k >= 1; k-- {
		mem := iosim.NewMemFS()
		killOpts := sc.runOpts(res.Program.Procs)
		killOpts.Trace = nil
		killOpts.FS = iosim.NewFaultFS(mem, k, nil)
		killOpts.Bytecode = runBC
		if _, err := Run(res.Program, mach, killOpts); err == nil {
			continue // budget k sufficed; kill earlier
		}
		resumeOpts := sc.runOpts(res.Program.Procs)
		resumeOpts.FS = mem
		resumeOpts.Bytecode = resumeBC
		out, err := Resume(res.Program, mach, resumeOpts)
		if err != nil {
			continue // killed mid-commit or before the first checkpoint
		}
		if err := trace.Reconcile(resumeOpts.Trace.Spans(), out.Stats, out.PerArray); err != nil {
			t.Fatalf("resume spans do not reconcile:\n%v", err)
		}
		return out
	}
	t.Fatal("no kill point produced a resumable checkpoint")
	return nil
}

// TestBytecodeFingerprintMismatchRejected pins the cache-safety check: a
// bytecode program compiled from a different plan is refused before any
// array is touched.
func TestBytecodeFingerprintMismatchRejected(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := compiler.CompileSource(hpf.TransposeSource,
		compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(other.Program)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(res.Program, sim.Delta(4), Options{Bytecode: bc})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched bytecode must be rejected with a fingerprint error, got: %v", err)
	}
}

// TestBytecodeCancelledAtOpBoundary mirrors the tree walk's cancellation
// contract through the dispatch loop.
func TestBytecodeCancelledAtOpBoundary(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	ctx, fs := cancelAtOp(5)
	_, err = RunCtx(ctx, res.Program, sim.Delta(4), Options{FS: fs, Bytecode: bc})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled bytecode run must surface context.Canceled, got: %v", err)
	}
	if !strings.Contains(err.Error(), "cancelled at op boundary") {
		t.Fatalf("cancellation must happen at an op boundary, got: %v", err)
	}
}

// TestBytecodeRoundTripStillRuns executes a decoded stream — the persisted
// form a plan cache would hand back — and checks it behaves like the
// directly compiled one.
func TestBytecodeRoundTripStillRuns(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := bytecode.Decode(bytecode.Encode(bc))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Fill: sweepFills(), Bytecode: decoded}
	out, err := Run(res.Program, sim.Delta(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(res.Program, sim.Delta(4), Options{Fill: sweepFills(), Bytecode: bc})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := out.Stats.ElapsedSeconds(), direct.Stats.ElapsedSeconds(); a != b {
		t.Fatalf("decoded stream simulated %.12f, direct %.12f", a, b)
	}
	am, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	bm, err := direct.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(am, bm) {
		t.Fatal("decoded stream computed a different result")
	}
}

// plan.Fingerprint invariance under lowering: the bytecode program
// carries the plan's fingerprint verbatim, so a cache keyed on the plan
// fingerprint can serve either representation.
func TestBytecodeCarriesPlanFingerprint(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	if want := plan.Fingerprint(res.Program, nil); bc.Fingerprint != want {
		t.Fatalf("bytecode fingerprint %s, plan fingerprint %s", bc.Fingerprint, want)
	}
}

package exec

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

var updateWitness = flag.Bool("update-witness", false,
	"rewrite testdata/engine_witness.txt from this run (the committed file was recorded from the plan-tree walk at d70f485; regenerate only when simulated behaviour is meant to change)")

const witnessPath = "testdata/engine_witness.txt"

// witnessScenario is one compiled program under one option set whose
// observable behaviour engine_witness.txt pins.
type witnessScenario struct {
	name   string
	source string
	copts  compiler.Options
	// runtime is set on the compiled plan, which copts alone would
	// compile differently (sieve pricing can move the memory split).
	runtime oocarray.Options
	fills   map[string]func(int, int) float64
	options Options // FS, Trace, OpCounts and CkptHook filled in per run
	outputs []string
	// mode selects the run shape: "" is one Run; "kill-resume" cancels
	// the run from CkptHook at witnessKillEpoch and finishes it with
	// resume; "kill-rank" loses a rank mid-run and survives it.
	mode string
}

// witnessKillEpoch is the committed checkpoint epoch at which the
// kill-resume scenario cancels its first run.
const witnessKillEpoch = 3

func witnessScenarios() []witnessScenario {
	transposeFill := map[string]func(int, int) float64{
		"a": func(gi, gj int) float64 { return float64(gi*64 + gj + 1) },
	}
	return []witnessScenario{
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
			runtime: oocarray.Options{Sieve: true},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/row-slab/prefetch-writebehind",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
			runtime: oocarray.Options{Prefetch: true, WriteBehind: true},
			outputs: []string{"c"},
		},
		{
			name:    "gaxpy/phantom",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			options: Options{Phantom: true},
		},
		{
			// Fresh chaos FS per run, same seed (see runOpts).
			name:    "gaxpy/chaos-transient",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("row-slab"),
			fills:   sweepFills(),
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
			// Column-slab: statement-boundary and loop checkpoints, with
			// auto-staging state in the manifests.
			name:    "gaxpy/kill-resume",
			source:  hpf.GaxpySource,
			copts:   gaxpyScenarioOpts("column-slab"),
			fills:   sweepFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
			outputs: []string{"c"},
			mode:    "kill-resume",
		},
		{
			name:   "gaxpy/kill-rank",
			source: hpf.GaxpySource,
			copts:  gaxpyScenarioOpts("row-slab"),
			fills:  sweepFills(),
			options: Options{
				Checkpoint: &CheckpointSpec{Every: 1},
				Parity:     true,
			},
			outputs: []string{"c"},
			mode:    "kill-rank",
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
		{
			// Checkpoints at the LOOP_CKPT's trip boundaries.
			name:    "jacobi/time-loop",
			source:  hpf.JacobiSource,
			copts:   compiler.Options{N: 32, Procs: 4, MemElems: 128},
			fills:   jacobiFills(),
			options: Options{Checkpoint: &CheckpointSpec{Every: 1}},
			outputs: []string{"a", "b"},
		},
	}
}

// witnessRun holds the mutable per-scenario state the runs share: the
// backing store (so a resume finds the killed run's files and the
// checkpoint hook can read the manifests back) and the manifest lines
// collected so far.
type witnessRun struct {
	sc        *witnessScenario
	procs     int
	mem       *iosim.MemFS
	manifests []string
}

// runOpts builds one run's Options with fresh per-run state (tracer, op
// counters); checkpointing scenarios run on w.mem and hash every rank's
// manifest payload as each epoch commits.
func (w *witnessRun) runOpts(t *testing.T, cancelAt int, cancel context.CancelFunc) Options {
	opts := w.sc.options
	opts.Fill = w.sc.fills
	opts.Trace = trace.NewTracer(w.procs)
	opts.OpCounts = make([]int64, w.procs)
	if w.sc.name == "gaxpy/chaos-transient" {
		opts.FS = transientChaosFS(1)
		opts.Resilience = retryResilience()
	}
	if opts.Parity {
		opts.Resilience = parityResilience()
	}
	if spec := opts.Checkpoint; spec != nil {
		opts.FS = w.mem
		opts.CkptHook = func(epoch int) {
			// Rank 0, after the commit barrier: every rank's manifest of
			// this epoch is on disk, and none can be overwritten before
			// rank 0 joins the next epoch's barrier.
			for rank := 0; rank < w.procs; rank++ {
				sum, err := manifestPayloadSum(w.mem, spec.manifestName(rank, epoch%ckptSlots))
				if err != nil {
					t.Errorf("epoch %d rank %d: %v", epoch, rank, err)
				}
				w.manifests = append(w.manifests, fmt.Sprintf("manifest r%d e%d %s", rank, epoch, sum))
			}
			if cancel != nil && epoch == cancelAt {
				cancel()
			}
		}
	}
	return opts
}

// manifestPayloadSum hashes the JSON payload of one checkpoint manifest
// file (the bytes behind the magic/length/CRC header).
func manifestPayloadSum(fs iosim.FS, name string) (string, error) {
	f, err := fs.Open(name)
	if err != nil {
		return "", err
	}
	defer f.Close()
	head := make([]byte, len(ckptMagic)+8)
	if _, err := f.ReadAt(head, 0); err != nil {
		return "", fmt.Errorf("%s header: %w", name, err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(head[len(ckptMagic):]))
	if _, err := f.ReadAt(payload, int64(len(head))); err != nil {
		return "", fmt.Errorf("%s payload: %w", name, err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(payload)), nil
}

func jsonSum(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// spanSum hashes the span sequence: every field but Flow (a link id, not
// an observable), floats by their bits.
func spanSum(spans []trace.Span) string {
	h := sha256.New()
	for _, s := range spans {
		fmt.Fprintf(h, "%d %d %q %016x %016x %t %d %d %d %d %d\n", s.Rank, s.Kind, s.Label,
			math.Float64bits(s.Start), math.Float64bits(s.Dur), s.Deferred, s.Peer, s.N, s.M, s.Bytes, s.Bytes2)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// observe renders a completed run's observables, one per line.
func (w *witnessRun) observe(t *testing.T, out *Result, tr *trace.Tracer, opCounts []int64) []string {
	t.Helper()
	spans := tr.Spans()
	if err := trace.Reconcile(spans, out.Stats, out.PerArray); err != nil {
		t.Fatalf("spans do not reconcile:\n%v", err)
	}
	lines := []string{fmt.Sprintf("sim_s %016x", math.Float64bits(out.Stats.ElapsedSeconds()))}
	for _, p := range out.Stats.Procs {
		lines = append(lines, fmt.Sprintf("clock r%d %016x", p.Proc, math.Float64bits(p.Seconds)))
	}
	lines = append(lines,
		"stats "+jsonSum(t, out.Stats.Procs),
		"per_array "+jsonSum(t, out.PerArray),
		fmt.Sprintf("spans %d %s", len(spans), spanSum(spans)),
		fmt.Sprintf("ops %d", opCounts))
	for _, name := range w.sc.outputs {
		m, err := out.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		lines = append(lines, fmt.Sprintf("array %s %x", name, h.Sum(nil)))
	}
	return lines
}

// record runs the scenario and returns its witness block.
func (sc *witnessScenario) record(t *testing.T) []string {
	t.Helper()
	res, err := compiler.CompileSource(sc.source, sc.copts)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Program
	p.Runtime = sc.runtime
	mach := sim.Delta(p.Procs)
	w := &witnessRun{sc: sc, procs: p.Procs, mem: iosim.NewMemFS()}
	var lines []string
	switch sc.mode {
	case "":
		opts := w.runOpts(t, 0, nil)
		out, err := Run(p, mach, opts)
		if err != nil {
			t.Fatal(err)
		}
		lines = w.observe(t, out, opts.Trace, opts.OpCounts)

	case "kill-resume":
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if _, err := RunCtx(ctx, p, mach, w.runOpts(t, witnessKillEpoch, cancel)); err == nil {
			t.Fatalf("run cancelled at epoch %d completed", witnessKillEpoch)
		}
		opts := w.runOpts(t, 0, nil)
		opts.Resume = true
		out, err := Run(p, mach, opts)
		if err != nil {
			t.Fatal(err)
		}
		lines = w.observe(t, out, opts.Trace, opts.OpCounts)

	case "kill-rank":
		probe := w.runOpts(t, 0, nil)
		probe.CkptHook = nil
		out, err := Run(p, mach, probe)
		if err != nil {
			t.Fatal(err)
		}
		out.Close()
		const victim = 1
		opts := w.runOpts(t, 0, nil)
		opts.Faults = []mp.Fault{{Rank: victim, Op: probe.OpCounts[victim] / 2}}
		rr, err := Run(p, mach, opts)
		if err != nil {
			t.Fatal(err)
		}
		lines = []string{fmt.Sprintf("kill r%d op %d attempts %d", victim, opts.Faults[0].Op, rr.Attempts)}
		for _, rec := range rr.Recoveries {
			lines = append(lines, fmt.Sprintf("recovery failed %v rebuild_s %016x rebuild_io %s",
				rec.Failed, math.Float64bits(rec.RebuildSeconds), jsonSum(t, rec.RebuildIO)))
		}
		lines = append(lines, w.observe(t, rr, rr.Trace, opts.OpCounts)...)

	default:
		t.Fatalf("unknown witness mode %q", sc.mode)
	}
	return append(lines, w.manifests...)
}

// TestBytecodeMatchesTreeAcrossScenarios holds the opcode-stream engine
// to the plan-tree walk it replaced. testdata/engine_witness.txt was
// recorded from the tree walk at d70f485 (EXPERIMENTS.md gives the
// command); for every kernel and fault mode the engine must reproduce its
// simulated time and per-rank clocks to the bit, every statistics
// counter, the span timeline, the fail-stop op counts, the output arrays
// and the bytes of every checkpoint manifest it commits.
func TestBytecodeMatchesTreeAcrossScenarios(t *testing.T) {
	want := map[string][]string{}
	if !*updateWitness {
		raw, err := os.ReadFile(witnessPath)
		if err != nil {
			t.Fatal(err)
		}
		name := ""
		for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
			if rest, ok := strings.CutPrefix(line, "# "); ok {
				name = rest
				want[name] = []string{}
				continue
			}
			want[name] = append(want[name], line)
		}
	}
	var text strings.Builder
	scenarios := witnessScenarios()
	for i := range scenarios {
		sc := &scenarios[i]
		t.Run(sc.name, func(t *testing.T) {
			got := sc.record(t)
			fmt.Fprintf(&text, "# %s\n%s\n", sc.name, strings.Join(got, "\n"))
			if *updateWitness {
				return
			}
			block, ok := want[sc.name]
			if !ok {
				t.Fatalf("%s has no block for this scenario", witnessPath)
			}
			for i, line := range got {
				if i >= len(block) || block[i] != line {
					w := "<end of block>"
					if i < len(block) {
						w = block[i]
					}
					t.Fatalf("line %d of the block differs from %s\n got: %s\nwant: %s", i+1, witnessPath, line, w)
				}
			}
			if len(block) > len(got) {
				t.Fatalf("%s has %d lines for this scenario, this run produced %d", witnessPath, len(block), len(got))
			}
		})
	}
	if *updateWitness {
		if err := os.WriteFile(witnessPath, []byte(text.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(scenarios) {
		t.Fatalf("%s holds %d scenarios, the test runs %d", witnessPath, len(want), len(scenarios))
	}
}

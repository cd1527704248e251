package exec

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// streamScenarios are the acceptance matrix for live streaming: the
// trace lines written as the run progresses must carry the exact span
// sequence of the buffered Chrome export, and both must replay to the
// accounted statistics to the digit.
func streamScenarios() []reconcileScenario {
	return []reconcileScenario{
		{
			name:   "gaxpy/row-slab",
			source: hpf.GaxpySource,
			copts:  gaxpyScenarioOpts("row-slab"),
			fills:  sweepFills(),
		},
		{
			name:   "transpose/two-phase",
			source: hpf.TransposeSource,
			copts:  compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "two-phase"},
			fills: map[string]func(int, int) float64{
				"a": func(gi, gj int) float64 { return float64(gi*64 + gj + 1) },
			},
		},
		{
			name:   "stencil/shift-exchange",
			source: shiftSource,
			copts:  compiler.Options{N: 32, Procs: 4, MemElems: 32 * 4},
			fills:  map[string]func(int, int) float64{"x": shiftFillX},
		},
	}
}

func TestStreamedSpansReconcileWithBufferedExport(t *testing.T) {
	for _, sc := range streamScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			res, err := compiler.CompileSource(sc.source, sc.copts)
			if err != nil {
				t.Fatal(err)
			}
			res.Program.Runtime = sc.runtime
			mach := sim.Delta(res.Program.Procs)

			var stream bytes.Buffer
			opts := sc.options
			opts.Fill = sc.fills
			opts.Trace = trace.NewTracer(res.Program.Procs)
			opts.Trace.SetSink(trace.NewChromeSink(&stream, res.Program.Procs))

			out, err := Run(res.Program, mach, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := opts.Trace.CloseSink(); err != nil {
				t.Fatal(err)
			}

			streamed, err := trace.ParseTrace(stream.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Procs != res.Program.Procs || streamed.Dropped != 0 || !streamed.Complete {
				t.Fatalf("stream parsed as procs=%d dropped=%d complete=%v, want %d, 0, true",
					streamed.Procs, streamed.Dropped, streamed.Complete, res.Program.Procs)
			}

			var chrome bytes.Buffer
			if err := opts.Trace.ExportChromeTrace(&chrome); err != nil {
				t.Fatal(err)
			}
			buffered, err := trace.ParseTrace(chrome.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if buffered.Dropped != 0 {
				t.Fatalf("buffered export records %d drops, want 0", buffered.Dropped)
			}
			if len(streamed.Spans) != len(buffered.Spans) {
				t.Fatalf("stream carries %d spans, buffered export %d", len(streamed.Spans), len(buffered.Spans))
			}
			for i, want := range buffered.Spans {
				if got := streamed.Spans[i]; got != want {
					t.Fatalf("span %d differs between stream and export:\nstream %+v\nexport %+v", i, got, want)
				}
			}

			// And both reconcile with the accounted statistics, exactly.
			if err := trace.Reconcile(streamed.Spans, out.Stats, out.PerArray); err != nil {
				t.Fatalf("streamed spans do not replay to the statistics:\n%v", err)
			}
		})
	}
}

// slowSink sleeps on every span, so the emitting ranks wait on it in
// wall-clock time.
type slowSink struct{ emitted int64 }

func (s *slowSink) Emit(rank int, sp Span) {
	time.Sleep(50 * time.Microsecond)
	s.emitted++
}
func (s *slowSink) Flush() error { return nil }
func (s *slowSink) Close() error { return nil }

// Span aliases trace.Span for the local sink implementations.
type Span = trace.Span

// TestSlowSinkDoesNotPerturbSimulation pins the decoupling between wall
// time and simulated time: a slow sink receives every span and leaves
// the simulated clock and every counter bit-identical to the sink-less
// run.
func TestSlowSinkDoesNotPerturbSimulation(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	mach := sim.Delta(res.Program.Procs)

	base, err := Run(res.Program, mach, Options{Fill: sweepFills()})
	if err != nil {
		t.Fatal(err)
	}

	sink := &slowSink{}
	tr := trace.NewTracer(res.Program.Procs)
	tr.SetSink(sink)
	slow, err := Run(res.Program, mach, Options{Fill: sweepFills(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}

	if got, want := slow.Stats.ElapsedSeconds(), base.Stats.ElapsedSeconds(); got != want {
		t.Fatalf("slow sink changed sim_s: %v != %v", got, want)
	}
	if got, want := slow.Stats.Snapshot(), base.Stats.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("slow sink changed the counters:\n%+v\n%+v", got, want)
	}
	if total := int64(len(tr.Spans())); total == 0 || sink.emitted != total {
		t.Fatalf("slow sink got %d of %d spans", sink.emitted, total)
	}
}

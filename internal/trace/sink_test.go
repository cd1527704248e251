package trace

import (
	"bytes"
	"sync"
	"testing"
)

// The lines a sink streams while the run records are the exact spans
// the tracer buffers, int64 fields above 2^53 included.
func TestStreamRoundTripExact(t *testing.T) {
	var buf bytes.Buffer
	tr := sampleTracer(NewChromeSink(&buf, 2))
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameTimeline(t, got, 2, tr.Spans())
}

// The streamed spans and the buffered export of the same run must be
// the same sequence, to the digit.
func TestStreamMatchesBufferedExport(t *testing.T) {
	var stream bytes.Buffer
	tr := sampleTracer(NewChromeSink(&stream, 2))
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := tr.ExportChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	streamed, err := ParseTrace(stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := ParseTrace(chrome.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameTimeline(t, streamed, buffered.Procs, buffered.Spans)
}

func TestChromeSinkStreamParses(t *testing.T) {
	var buf bytes.Buffer
	tr := sampleTracer(nil) // buffered only
	cs := NewChromeSink(&buf, tr.Procs())
	for _, s := range tr.Spans() {
		cs.Emit(s.Rank, s)
	}
	cs.ReportDropped(tr.Dropped())
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameTimeline(t, got, 2, tr.Spans())
}

// blockingSink stalls every Emit until released — the pathological slow
// consumer. gate is closed once to unblock all pending and future Emits.
type blockingSink struct {
	gate  chan struct{}
	mu    sync.Mutex
	count int64
}

func (b *blockingSink) Emit(rank int, s Span) {
	<-b.gate
	b.mu.Lock()
	b.count++
	b.mu.Unlock()
}
func (b *blockingSink) Flush() error { return nil }
func (b *blockingSink) Close() error { return nil }

// A sink that never keeps up must not block the emitting rank (the
// simulated clock), must bound buffered memory to the hand-off queue,
// and must account every span: delivered + dropped == emitted, exactly.
func TestSinkBackpressureBoundsAndCounts(t *testing.T) {
	const emitted = 10000
	const queue = 8
	sink := &blockingSink{gate: make(chan struct{})}
	tr := NewTracer(1)
	tr.SetSink(sink, queue)
	r0 := tr.Rank(0)
	// The sink is fully stalled: if offer ever blocked, this loop (the
	// simulated clock's stand-in) would deadlock and the test would time
	// out.
	for i := 0; i < emitted; i++ {
		r0.Emit(Span{Kind: KindCompute, Start: float64(i), Dur: 1})
	}
	if got := tr.SinkDropped(); got < emitted-queue-1 {
		t.Fatalf("SinkDropped = %d before drain; want >= %d (queue %d must bound buffering)", got, emitted-queue-1, queue)
	}
	close(sink.gate)
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	delivered := sink.count
	sink.mu.Unlock()
	dropped := tr.SinkDropped()
	if delivered+dropped != emitted {
		t.Fatalf("delivered %d + dropped %d != emitted %d", delivered, dropped, emitted)
	}
	if dropped == 0 {
		t.Fatal("expected drops from a stalled sink")
	}
	if got := tr.Dropped(); got != dropped {
		t.Fatalf("Dropped() = %d does not fold in sink drops (%d)", got, dropped)
	}
}

// A slow sink attached in blocking mode (ooc-run -trace-stream) sheds
// nothing: emitters wait for queue space, so every span arrives and the
// stream stays exactly reconcilable.
func TestBlockingSinkLosesNothing(t *testing.T) {
	const emitted = 5000
	slow := &blockingSink{gate: make(chan struct{})}
	go func() {
		for i := 0; i < emitted; i++ {
			slow.gate <- struct{}{}
		}
	}()
	tr := NewTracer(1)
	tr.SetSinkBlocking(slow, 2)
	r0 := tr.Rank(0)
	for i := 0; i < emitted; i++ {
		r0.Emit(Span{Kind: KindCompute, Start: float64(i), Dur: 1})
	}
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	slow.mu.Lock()
	delivered := slow.count
	slow.mu.Unlock()
	if delivered != emitted {
		t.Fatalf("blocking sink delivered %d of %d spans", delivered, emitted)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d on a blocking stream, want 0", got)
	}
}

func TestCloseSinkIdempotentAndShared(t *testing.T) {
	var buf bytes.Buffer
	a := NewTracer(1)
	a.SetSink(NewChromeSink(&buf, 1), 0)
	ra := a.Rank(0)
	ra.Emit(Span{Kind: KindCompute, Start: 0, Dur: 1})

	b := NewTracer(1)
	b.AdoptSink(a)
	rb := b.Rank(0)
	rb.Emit(Span{Kind: KindCompute, Start: 1, Dur: 1})

	if err := b.CloseSink(); err != nil {
		t.Fatal(err)
	}
	if err := a.CloseSink(); err != nil {
		t.Fatalf("second CloseSink on shared stream: %v", err)
	}
	if err := b.CloseSink(); err != nil {
		t.Fatalf("repeated CloseSink: %v", err)
	}
	got, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spans := got.Spans
	if len(spans) != 2 || got.Dropped != 0 || !got.Complete {
		t.Fatalf("shared stream carried %d spans (dropped %d, complete %v), want 2, 0, true", len(spans), got.Dropped, got.Complete)
	}
	if spans[0].Start != 0 || spans[1].Start != 1 {
		t.Fatalf("adopting tracer's spans missing from the stream: %+v", spans)
	}

	var none Tracer
	if err := none.CloseSink(); err != nil {
		t.Fatalf("CloseSink without a sink: %v", err)
	}
}

func TestChromeSinkRecordsDrops(t *testing.T) {
	var buf bytes.Buffer
	cs := NewChromeSink(&buf, 1)
	cs.Emit(0, Span{Kind: KindCompute, Start: 0, Dur: 1})
	cs.ReportDropped(7)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dropped != 7 || !got.Complete {
		t.Fatalf("dropped_spans = %d (complete %v), want 7", got.Dropped, got.Complete)
	}
}

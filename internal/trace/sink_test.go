package trace

import (
	"bytes"
	"sync"
	"sync/atomic"
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
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameTimeline(t, got, 2, tr.Spans())
}

// countingSink counts the spans it is handed and fails the test if two
// calls ever overlap.
type countingSink struct {
	t     *testing.T
	in    atomic.Bool
	count int64
}

func (c *countingSink) Emit(rank int, s Span) {
	if c.in.Swap(true) {
		c.t.Error("concurrent Emit calls into one sink")
	}
	c.count++
	c.in.Store(false)
}
func (c *countingSink) Flush() error { return nil }
func (c *countingSink) Close() error { return nil }

// Ranks emitting at once, cross-rank spans included, hand every span to
// the sink, one call at a time.
func TestSinkGetsEverySpanSerially(t *testing.T) {
	const procs, perRank = 4, 2000
	sink := &countingSink{t: t}
	tr := NewTracer(procs)
	tr.SetSink(sink)
	var wg sync.WaitGroup
	for r := 0; r < procs; r++ {
		rt := tr.Rank(r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				rt.Emit(Span{Kind: KindCompute, Start: float64(i), Dur: 1})
			}
			rt.Cross((r+1)%procs, Span{Kind: KindRecoveryComm, N: 1})
		}()
	}
	wg.Wait()
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	if want := int64(procs*perRank + procs); sink.count != want || int64(len(tr.Spans())) != want {
		t.Fatalf("sink got %d spans, tracer kept %d, want %d each", sink.count, len(tr.Spans()), want)
	}
}

func TestCloseSinkIdempotentAndShared(t *testing.T) {
	var buf bytes.Buffer
	a := NewTracer(1)
	a.SetSink(NewChromeSink(&buf, 1))
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

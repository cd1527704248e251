package trace

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// Sink consumes closed spans incrementally, as they are recorded,
// instead of waiting for the run to finish and the whole buffer to be
// exported. A sink is attached with Tracer.SetSink and called on the
// emitting ranks' goroutines under one mutex per stream, so
// implementations never see concurrent calls. Every span reaches the
// sink: a slow sink stalls the emitting ranks in wall-clock time, never
// on the simulated clock.
type Sink interface {
	// Emit consumes one closed span of the given rank. Errors are kept
	// internal (sticky) and surfaced by Flush or Close.
	Emit(rank int, s Span)
	// Flush forces any buffered output down to the destination.
	Flush() error
	// Close flushes, finalizes the output (the closing line) and
	// releases the destination. No Emit follows a Close.
	Close() error
}

// sinkState serializes the emitting ranks' calls into one Sink. It is
// shared by reference so a run that builds a fresh tracer for each
// attempt after a rank loss (exec.RunLowered) can carry one live stream
// across all attempts (see Tracer.AdoptSink).
type sinkState struct {
	mu     sync.Mutex
	sink   Sink
	closed bool
	err    error
}

func (sk *sinkState) emit(s Span) {
	sk.mu.Lock()
	sk.sink.Emit(s.Rank, s)
	sk.mu.Unlock()
}

// close flushes and closes the sink once; later calls return the first
// call's error.
func (sk *sinkState) close() error {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if !sk.closed {
		sk.closed = true
		ferr := sk.sink.Flush()
		cerr := sk.sink.Close()
		if sk.err = ferr; sk.err == nil {
			sk.err = cerr
		}
	}
	return sk.err
}

// ChromeSink writes the trace document incrementally, one event per
// line: the header and the rank metadata at creation, each span's event
// (and the flow event of a linked send or wait) as it arrives, and the
// closing line with the span and drop counts on Close. Spans arrive in
// live emission order rather than rank by rank, which ParseTrace
// normalizes; ExportChromeTrace is itself this sink replaying the
// buffer.
type ChromeSink struct {
	w       *bufio.Writer
	c       io.Closer
	buf     []byte // the line being encoded (encode.go)
	spans   int64
	dropped int64
	err     error
}

// NewChromeSink starts a trace for procs ranks on w. When w is also an
// io.Closer, Close closes it after the closing line.
func NewChromeSink(w io.Writer, procs int) *ChromeSink {
	s := &ChromeSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	_, s.err = s.w.WriteString(traceHeader + "\n")
	for r := 0; r < procs; r++ {
		s.writeEvent(jsonEvent{Name: "process_name", Ph: "M", PID: r, Args: &eventArgs{Name: fmt.Sprintf("rank %d", r)}}, eventEnd)
		s.writeEvent(jsonEvent{Name: "thread_name", Ph: "M", PID: r, TID: tidTimeline, Args: &eventArgs{Name: "timeline"}}, eventEnd)
		s.writeEvent(jsonEvent{Name: "thread_name", Ph: "M", PID: r, TID: tidDeferred, Args: &eventArgs{Name: "disk (overlapped)"}}, eventEnd)
	}
	return s
}

func (s *ChromeSink) writeEvent(ev jsonEvent, end string) {
	if s.err == nil {
		s.buf, s.err = appendEvent(s.buf[:0], &ev)
		s.writeLine(end)
	}
}

// writeLine writes the encoded event in buf and end, unless an error
// (the encoding's included) has stopped the stream.
func (s *ChromeSink) writeLine(end string) {
	if s.err != nil {
		return
	}
	s.buf = append(s.buf, end...)
	_, s.err = s.w.Write(s.buf)
}

// Emit writes one span's event line (and its flow event's line when the
// span is a linked send or wait).
func (s *ChromeSink) Emit(rank int, sp Span) {
	sp.Rank = rank
	s.spans++
	if s.err != nil {
		return
	}
	s.buf, s.err = appendSpanEvent(s.buf[:0], &sp)
	s.writeLine(eventEnd)
	if s.err != nil {
		return
	}
	var ok bool
	if s.buf, ok, s.err = appendFlowEvent(s.buf[:0], &sp); ok {
		s.writeLine(eventEnd)
	}
}

// ReportDropped records, for the closing line, how many spans a
// wrapping sink left out of the stream.
func (s *ChromeSink) ReportDropped(n int64) { s.dropped = n }

// Flush pushes buffered lines down. The document is not complete until
// Close writes the closing line.
func (s *ChromeSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close writes the closing line, flushes, and closes a closable
// destination.
func (s *ChromeSink) Close() error {
	s.writeEvent(jsonEvent{Name: "dropped_spans", Ph: "M",
		Args: &eventArgs{Name: "dropped_spans", Count: s.dropped, Spans: s.spans}}, traceEnd)
	if s.err == nil {
		s.err = s.w.Flush()
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

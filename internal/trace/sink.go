package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Sink consumes closed spans incrementally, as they are recorded,
// instead of waiting for the run to finish and the whole buffer to be
// exported. A sink is attached with Tracer.SetSink and fed from a
// single pump goroutine, so implementations never see concurrent Emit
// calls. Emit must not block on the emitting ranks' behalf — the
// tracer's bounded hand-off queue absorbs bursts and drops (with exact
// accounting in Tracer.Dropped) when the sink cannot keep up, so a slow
// consumer can never stall the simulated clock.
type Sink interface {
	// Emit consumes one closed span of the given rank. Errors are kept
	// internal (sticky) and surfaced by Flush or Close.
	Emit(rank int, s Span)
	// Flush forces any buffered output down to the destination.
	Flush() error
	// Close flushes, finalizes the output (trailers, array close) and
	// releases the destination. No Emit follows a Close.
	Close() error
}

// DropReporter is implemented by sinks that record the tracer's final
// drop count in their output — the NDJSON trailer line, the Chrome
// trace's dropped_spans metadata event. Tracer.CloseSink calls it once,
// after the pump has drained and before Flush/Close.
type DropReporter interface {
	ReportDropped(n int64)
}

// sinkState is the bounded hand-off between the emitting rank
// goroutines and the single pump goroutine feeding the Sink. It is
// shared by reference so a run that builds a fresh tracer for each
// attempt after a rank loss (exec.RunLowered) can carry one live stream
// across all attempts (see Tracer.AdoptSink).
type sinkState struct {
	sink Sink
	q    chan Span
	done chan struct{} // closed by the pump once the queue is drained
	fin  chan struct{} // closed by CloseSink once err is final
	// block makes offer wait for queue space instead of dropping — a
	// lossless mode for consumers like a local NDJSON file, where the
	// stream must reconcile and stalling wall-clock time is acceptable.
	// The simulated clock is unaffected either way.
	block bool
	// dropped counts spans the hand-off queue rejected because the sink
	// was too slow; folded into Tracer.Dropped.
	dropped atomic.Int64
	closed  atomic.Bool
	err     error
}

// offer enqueues s for the pump. In the default lossy mode a full queue
// drops the span (counted, never blocking the emitting rank); in
// blocking mode it waits for the pump to catch up.
func (sk *sinkState) offer(s Span) {
	if sk.block {
		sk.q <- s
		return
	}
	select {
	case sk.q <- s:
	default:
		sk.dropped.Add(1)
	}
}

// pump is the consumer goroutine: it serializes all sink access.
func (sk *sinkState) pump() {
	for s := range sk.q {
		sk.sink.Emit(s.Rank, s)
	}
	close(sk.done)
}

// ---------------------------------------------------------------------------
// NDJSON span encoding (one JSON object per line)

// spanJSON is the NDJSON wire form of a Span. Numeric fields round-trip
// exactly: encoding/json renders float64 with the shortest
// representation that parses back to the same bits, and int64 payloads
// are decoded without a float detour.
type spanJSON struct {
	Rank     int     `json:"rank"`
	Kind     string  `json:"kind"`
	Label    string  `json:"label,omitempty"`
	Start    float64 `json:"start_s"`
	Dur      float64 `json:"dur_s,omitempty"`
	Deferred bool    `json:"deferred,omitempty"`
	Peer     int     `json:"peer,omitempty"`
	Flow     string  `json:"flow,omitempty"`
	N        int64   `json:"n,omitempty"`
	M        int64   `json:"m,omitempty"`
	Bytes    int64   `json:"bytes,omitempty"`
	Bytes2   int64   `json:"bytes2,omitempty"`
}

// StreamTrailer is the final NDJSON line of a streamed trace: the span
// count the producer emitted and how many spans were dropped on the way
// (nonzero drops void any exactness claim about the stream).
type StreamTrailer struct {
	Trailer bool  `json:"ndjson_trailer"`
	Spans   int64 `json:"spans"`
	Dropped int64 `json:"dropped"`
}

// MarshalSpan renders one span as its NDJSON line (no trailing newline).
func MarshalSpan(s Span) ([]byte, error) {
	js := spanJSON{
		Rank: s.Rank, Kind: s.Kind.String(), Label: s.Label,
		Start: s.Start, Dur: s.Dur, Deferred: s.Deferred, Peer: s.Peer,
		N: s.N, M: s.M, Bytes: s.Bytes, Bytes2: s.Bytes2,
	}
	if s.Flow != 0 {
		js.Flow = fmt.Sprintf("%x", s.Flow)
	}
	return json.Marshal(js)
}

// UnmarshalSpanLine parses one NDJSON line back into a span. Trailer
// lines return a non-nil *StreamTrailer instead of a span.
func UnmarshalSpanLine(line []byte) (Span, *StreamTrailer, error) {
	if bytes.Contains(line, []byte(`"ndjson_trailer"`)) {
		var tr StreamTrailer
		if err := json.Unmarshal(line, &tr); err != nil {
			return Span{}, nil, fmt.Errorf("trace: bad trailer line: %w", err)
		}
		if tr.Trailer {
			return Span{}, &tr, nil
		}
	}
	var js spanJSON
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return Span{}, nil, fmt.Errorf("trace: bad span line: %w", err)
	}
	kind, ok := KindFromString(js.Kind)
	if !ok {
		return Span{}, nil, fmt.Errorf("trace: unknown span kind %q", js.Kind)
	}
	s := Span{
		Rank: js.Rank, Kind: kind, Label: js.Label,
		Start: js.Start, Dur: js.Dur, Deferred: js.Deferred, Peer: js.Peer,
		N: js.N, M: js.M, Bytes: js.Bytes, Bytes2: js.Bytes2,
	}
	if js.Flow != "" {
		if _, err := fmt.Sscanf(js.Flow, "%x", &s.Flow); err != nil {
			return Span{}, nil, fmt.Errorf("trace: bad flow id %q", js.Flow)
		}
	}
	return s, nil, nil
}

// NDJSONSink writes spans as newline-delimited JSON, one span per line,
// as they close — the incremental counterpart of the buffered Chrome
// export. Close appends a StreamTrailer line carrying the span and drop
// counts. All methods are called from the tracer's pump goroutine; the
// sink is not safe for concurrent use.
type NDJSONSink struct {
	w       *bufio.Writer
	c       io.Closer // non-nil when the destination should be closed too
	spans   int64
	dropped int64
	err     error
}

// NewNDJSONSink wraps w in a buffered NDJSON span writer. When w is
// also an io.Closer, Close closes it after the trailer.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	s := &NDJSONSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes one span line. Errors are sticky and surface on Flush or
// Close.
func (s *NDJSONSink) Emit(rank int, sp Span) {
	if s.err != nil {
		return
	}
	sp.Rank = rank
	line, err := MarshalSpan(sp)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(line); err != nil {
		s.err = err
		return
	}
	if err := s.w.WriteByte('\n'); err != nil {
		s.err = err
		return
	}
	s.spans++
}

// ReportDropped records the producer-side drop count for the trailer.
func (s *NDJSONSink) ReportDropped(n int64) { s.dropped = n }

// Spans returns how many spans have been written so far.
func (s *NDJSONSink) Spans() int64 { return s.spans }

// Flush pushes buffered lines to the destination.
func (s *NDJSONSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close writes the trailer line, flushes, and closes the destination
// when it is closable.
func (s *NDJSONSink) Close() error {
	if s.err == nil {
		if data, err := json.Marshal(StreamTrailer{Trailer: true, Spans: s.spans, Dropped: s.dropped}); err != nil {
			s.err = err
		} else if _, err := s.w.Write(append(data, '\n')); err != nil {
			s.err = err
		} else {
			s.err = s.w.Flush()
		}
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

// ParseNDJSON restores the spans of an NDJSON stream, stably grouped by
// rank (matching ParseChromeTrace), together with the rank count and
// the trailer's drop count (zero when the stream has no trailer — a
// stream cut off mid-run).
func ParseNDJSON(r io.Reader) (spans []Span, procs int, dropped int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	sawTrailer := false
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if sawTrailer {
			return nil, 0, 0, fmt.Errorf("trace: line %d: content after the trailer", line)
		}
		s, tr, perr := UnmarshalSpanLine(text)
		if perr != nil {
			return nil, 0, 0, fmt.Errorf("trace: line %d: %w", line, perr)
		}
		if tr != nil {
			sawTrailer = true
			dropped = tr.Dropped
			if tr.Spans != int64(len(spans)) {
				return nil, 0, 0, fmt.Errorf("trace: trailer says %d spans but the stream carries %d", tr.Spans, len(spans))
			}
			continue
		}
		if s.Rank+1 > procs {
			procs = s.Rank + 1
		}
		spans = append(spans, s)
	}
	if serr := sc.Err(); serr != nil {
		return nil, 0, 0, serr
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Rank < spans[j].Rank })
	return spans, procs, dropped, nil
}

// ---------------------------------------------------------------------------
// Streaming Chrome trace-event writer

// ChromeSink writes the Chrome trace-event JSON object incrementally:
// the header and per-rank metadata at creation, one event per span as
// it arrives (plus flow events for linked send/wait pairs), and the
// closing of the traceEvents array on Close. The output is exactly the
// document the buffered exporter produced, modulo event order — spans
// arrive in live emission order rather than rank by rank, which
// ParseChromeTrace normalizes. ExportChromeTrace is itself implemented
// by replaying the buffer through this sink.
type ChromeSink struct {
	w       *bufio.Writer
	c       io.Closer
	n       int // events written
	spans   int64
	dropped int64
	err     error
}

// NewChromeSink starts a streaming Chrome trace for procs ranks on w.
// When w is also an io.Closer, Close closes it after the trailer.
func NewChromeSink(w io.Writer, procs int) *ChromeSink {
	s := &ChromeSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	s.writeString(`{"traceEvents":[`)
	for r := 0; r < procs; r++ {
		s.writeEvent(jsonEvent{Name: "process_name", Ph: "M", PID: r, Args: map[string]any{"name": fmt.Sprintf("rank %d", r)}})
		s.writeEvent(jsonEvent{Name: "thread_name", Ph: "M", PID: r, TID: tidTimeline, Args: map[string]any{"name": "timeline"}})
		s.writeEvent(jsonEvent{Name: "thread_name", Ph: "M", PID: r, TID: tidDeferred, Args: map[string]any{"name": "disk (overlapped)"}})
	}
	return s
}

func (s *ChromeSink) writeString(str string) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.WriteString(str)
}

func (s *ChromeSink) writeEvent(ev jsonEvent) {
	if s.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	if s.n > 0 {
		if s.err = s.w.WriteByte(','); s.err != nil {
			return
		}
	}
	if _, s.err = s.w.Write(data); s.err != nil {
		return
	}
	s.n++
}

// Emit writes one span's trace event (and its flow event when the span
// is a linked send or wait).
func (s *ChromeSink) Emit(rank int, sp Span) {
	sp.Rank = rank
	s.writeEvent(spanEvent(sp))
	s.spans++
	if sp.Flow == 0 {
		return
	}
	id := fmt.Sprintf("%x", sp.Flow)
	switch sp.Kind {
	case KindSend:
		s.writeEvent(jsonEvent{
			Name: "shuffle", Cat: "flow", Ph: "s", ID: id,
			TS: sp.Start * 1e6, PID: sp.Rank, TID: tidTimeline,
		})
	case KindWait:
		s.writeEvent(jsonEvent{
			Name: "shuffle", Cat: "flow", Ph: "f", BP: "e", ID: id,
			TS: sp.End() * 1e6, PID: sp.Rank, TID: tidTimeline,
		})
	}
}

// ReportDropped records the producer-side drop count for the trailing
// dropped_spans metadata event.
func (s *ChromeSink) ReportDropped(n int64) { s.dropped = n }

// Flush pushes buffered output down. The document is not yet valid
// JSON until Close terminates the array.
func (s *ChromeSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close writes the dropped_spans metadata trailer, terminates the
// traceEvents array, flushes, and closes a closable destination.
func (s *ChromeSink) Close() error {
	s.writeEvent(jsonEvent{Name: "dropped_spans", Ph: "M", PID: 0,
		Args: map[string]any{"name": "dropped_spans", "count": s.dropped, "spans": s.spans}})
	s.writeString("]}\n")
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

package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// A span has one wire form: an event of the Chrome trace-event JSON
// object format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto / chrome://tracing. Each rank is a process
// (pid = rank) with two threads: tid 0 carries the synchronous
// timeline, tid 1 the overlapped (deferred) transfers. Matching
// AllToAll send/wait pairs are linked with flow events.
//
// Events are written one per line, so a file is readable line by line
// while it grows and up to its last whole line when a run is cut off:
//
//	{"traceEvents":[
//	{"name":"process_name","ph":"M",...},   (rank and thread names)
//	{"name":"compute","cat":"compute","ph":"X",...},   (spans and flows)
//	{"name":"dropped_spans","ph":"M",...,"args":{...,"spans":9}}]}
//
// The closing line carries the span count and the drop count; a trace
// without it is incomplete. Display timestamps are microseconds of
// simulated time; because that scaling is lossy for float64, every span
// also carries its exact fields in its args, which is what the decoder
// restores — so a trace survives export and import bit-for-bit and
// still reconciles with the counters.

const (
	tidTimeline = 0
	tidDeferred = 1

	traceHeader = `{"traceEvents":[`
	eventEnd    = ",\n"
	traceEnd    = "]}\n"
)

type jsonEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`
	Dur  *float64   `json:"dur,omitempty"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	S    string     `json:"s,omitempty"`
	BP   string     `json:"bp,omitempty"`
	ID   string     `json:"id,omitempty"`
	Args *eventArgs `json:"args,omitempty"`
}

// eventArgs is the args object of every event the format uses: a span's
// exact fields, a metadata event's name, and the closing line's counts.
// The int64 fields decode as integers, never through a float64.
type eventArgs struct {
	Name   string  `json:"name,omitempty"`
	Label  string  `json:"label,omitempty"`
	Start  float64 `json:"start_s,omitempty"`
	Dur    float64 `json:"dur_s,omitempty"`
	Peer   int     `json:"peer,omitempty"`
	Flow   string  `json:"flow,omitempty"`
	N      int64   `json:"n,omitempty"`
	M      int64   `json:"m,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
	Bytes2 int64   `json:"bytes2,omitempty"`
	Count  int64   `json:"count,omitempty"`
	Spans  int64   `json:"spans,omitempty"`
}

func spanEvent(s Span) jsonEvent {
	ev := jsonEvent{
		Name: s.Kind.String(),
		Cat:  s.Kind.String(),
		Ph:   "i",
		S:    "t",
		TS:   s.Start * 1e6,
		PID:  s.Rank,
		TID:  tidTimeline,
		Args: &eventArgs{
			Label: s.Label, Start: s.Start, Dur: s.Dur, Peer: s.Peer,
			N: s.N, M: s.M, Bytes: s.Bytes, Bytes2: s.Bytes2,
		},
	}
	if s.Label != "" {
		ev.Name += " " + s.Label
	}
	if s.Deferred {
		ev.TID = tidDeferred
	}
	if s.Flow != 0 {
		ev.Args.Flow = strconv.FormatUint(s.Flow, 16)
	}
	if s.Dur > 0 {
		ev.Ph, ev.S = "X", ""
		dur := s.Dur * 1e6
		ev.Dur = &dur
	}
	return ev
}

// flowEvent is the flow event that follows a linked send (its start) or
// wait (its finish); ok is false for every other span.
func flowEvent(s Span) (ev jsonEvent, ok bool) {
	ev = jsonEvent{Name: "shuffle", Cat: "flow", ID: strconv.FormatUint(s.Flow, 16), PID: s.Rank, TID: tidTimeline}
	switch {
	case s.Flow == 0:
		return ev, false
	case s.Kind == KindSend:
		ev.Ph, ev.TS = "s", s.Start*1e6
	case s.Kind == KindWait:
		ev.Ph, ev.BP, ev.TS = "f", "e", s.End()*1e6
	default:
		return ev, false
	}
	return ev, true
}

// ExportChromeTrace writes the whole trace by replaying the buffered
// spans through a ChromeSink — the batch export and the live stream
// share one writer, so they cannot drift apart. Spans are emitted rank
// by rank in emission order, so an imported trace preserves the ordered
// float sums the reconciliation depends on. The tracer drops nothing,
// so the closing line's drop count is 0.
func (t *Tracer) ExportChromeTrace(w io.Writer) error {
	cs := NewChromeSink(w, t.Procs())
	// Do not adopt w's Closer here: the batch exporter writes into a
	// caller-owned destination.
	cs.c = nil
	for r := 0; r < t.Procs(); r++ {
		for _, s := range t.RankSpans(r) {
			cs.Emit(s.Rank, s)
		}
	}
	return cs.Close()
}

// ErrMalformed is wrapped by every error the decoder returns for bytes
// that are not a trace in the format above.
var ErrMalformed = errors.New("trace: malformed trace")

// Timeline is a decoded trace.
type Timeline struct {
	Spans []Span
	// Procs is the number of ranks the trace declares.
	Procs int
	// Dropped is the closing line's count of spans lost on the way; a
	// nonzero count voids any exactness claim.
	Dropped int64
	// Complete reports that the closing line was read. A stream cut off
	// mid-run decodes up to its last whole line but is incomplete.
	Complete bool
}

// Decoder validates and decodes a trace one line at a time, so a live
// stream is read as it arrives: the header line, then events, then the
// closing line. It checks phases, names, pids (declared in order from
// 0) and tids, ts and dur >= 0, that each flow event follows the send or
// wait it belongs to and no flow finishes more often than it starts,
// and the closing line's span count. The zero value is ready to use;
// decoded spans accumulate in Spans in line order.
type Decoder struct {
	Timeline
	line  int
	open  bool           // the header line was read
	want  *jsonEvent     // the flow event the last span must be followed by
	flows map[string]int // flow starts minus finishes per id
}

func (d *Decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrMalformed, d.line, fmt.Sprintf(format, args...))
}

// Line decodes one line of a trace (without its newline). Blank lines
// are skipped. An error leaves the decoded state as it was before the
// line.
func (d *Decoder) Line(b []byte) error {
	d.line++
	b = bytes.TrimSpace(b)
	switch {
	case len(b) == 0:
		return nil
	case d.Complete:
		return d.errorf("content after the closing line")
	case !d.open:
		if string(b) != traceHeader {
			return d.errorf("want the header line %s", traceHeader)
		}
		d.open = true
		return nil
	}
	body, closing := bytes.CutSuffix(b, []byte("]}"))
	if !closing {
		var ok bool
		if body, ok = bytes.CutSuffix(b, []byte(",")); !ok {
			return d.errorf("an event line ends in ',' and the closing line in ']}'")
		}
	}
	// The sentinels make a missing ts, pid or tid fail the range checks.
	ev := jsonEvent{TS: -1, PID: -1, TID: -1}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return d.errorf("%v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return d.errorf("more than one event on the line")
	}
	if ev.Args == nil {
		ev.Args = &eventArgs{}
	}
	switch {
	case ev.Name == "":
		return d.errorf("event without a name")
	case ev.PID < 0:
		return d.errorf("%s: missing or negative pid", ev.Name)
	case closing != (ev.Ph == "M" && ev.Name == "dropped_spans"):
		return d.errorf("%s: the dropped_spans event is the closing line, and only it", ev.Name)
	case d.want != nil && ev.Ph != "s" && ev.Ph != "f":
		return d.errorf("%s: the span before it on rank %d lacks its flow event", ev.Name, d.want.PID)
	}
	switch ev.Ph {
	case "M":
		return d.meta(&ev)
	case "X", "i", "s", "f":
	default:
		return d.errorf("%s: unknown phase %q", ev.Name, ev.Ph)
	}
	switch {
	case ev.PID >= d.Procs:
		return d.errorf("%s: pid %d is not a declared rank", ev.Name, ev.PID)
	case ev.TID != tidTimeline && ev.TID != tidDeferred:
		return d.errorf("%s: tid %d is not a rank thread", ev.Name, ev.TID)
	case !(ev.TS >= 0):
		return d.errorf("%s: needs ts >= 0", ev.Name)
	case ev.Ph == "X" && (ev.Dur == nil || !(*ev.Dur >= 0)):
		return d.errorf("%s: complete event needs dur >= 0", ev.Name)
	case ev.Ph == "s" || ev.Ph == "f":
		return d.flow(&ev)
	}
	s, err := ev.span()
	if err != nil {
		return d.errorf("%s: %v", ev.Name, err)
	}
	d.Spans = append(d.Spans, s)
	if fe, ok := flowEvent(s); ok {
		d.want = &fe
	}
	return nil
}

// span restores the exact span of a span event.
func (ev *jsonEvent) span() (Span, error) {
	kind, ok := KindFromString(ev.Cat)
	if !ok {
		return Span{}, fmt.Errorf("unknown span category %q", ev.Cat)
	}
	a := ev.Args
	s := Span{
		Rank: ev.PID, Kind: kind, Label: a.Label, Start: a.Start, Dur: a.Dur,
		Deferred: ev.TID == tidDeferred, Peer: a.Peer,
		N: a.N, M: a.M, Bytes: a.Bytes, Bytes2: a.Bytes2,
	}
	if a.Flow != "" {
		var err error
		if s.Flow, err = strconv.ParseUint(a.Flow, 16, 64); err != nil {
			return Span{}, fmt.Errorf("bad flow id %q", a.Flow)
		}
	}
	// The display ts of the span and of a flow finish must be finite.
	if !(s.Start >= 0 && s.Dur >= 0) || math.IsInf(s.End()*1e6, 0) {
		return Span{}, fmt.Errorf("start_s %v and dur_s %v must be finite and >= 0", s.Start, s.Dur)
	}
	return s, nil
}

// flow checks a flow event against the span it follows.
func (d *Decoder) flow(ev *jsonEvent) error {
	if w := d.want; w == nil || ev.Ph != w.Ph || ev.ID != w.ID || ev.PID != w.PID {
		return d.errorf("flow event %q does not follow its send or wait span", ev.ID)
	}
	d.want = nil
	if d.flows == nil {
		d.flows = map[string]int{}
	}
	if ev.Ph == "s" {
		d.flows[ev.ID]++
	} else {
		d.flows[ev.ID]--
	}
	return nil
}

// meta handles the metadata events: rank and thread names, and the
// closing line.
func (d *Decoder) meta(ev *jsonEvent) error {
	switch ev.Name {
	case "process_name":
		if ev.PID != d.Procs {
			return d.errorf("process_name for pid %d: ranks are declared in order from 0", ev.PID)
		}
		d.Procs++
	case "thread_name":
		if ev.PID >= d.Procs || (ev.TID != tidTimeline && ev.TID != tidDeferred) {
			return d.errorf("thread_name for pid %d tid %d names no rank thread", ev.PID, ev.TID)
		}
	case "dropped_spans":
		a := ev.Args
		if a.Spans != int64(len(d.Spans)) {
			return d.errorf("the closing line counts %d spans but the trace carries %d", a.Spans, len(d.Spans))
		}
		if a.Count < 0 {
			return d.errorf("negative dropped_spans count %d", a.Count)
		}
		// A flow start may lack its finish — the stream of a run that
		// survived a rank loss carries the aborted attempt's sends — but
		// in a trace that lost nothing a wait never links to a send the
		// trace does not carry.
		for id, n := range d.flows {
			if n < 0 && a.Count == 0 {
				return d.errorf("flow %s finishes more often than it starts", id)
			}
		}
		d.Dropped, d.Complete = a.Count, true
	default:
		return d.errorf("unknown metadata event %q", ev.Name)
	}
	return nil
}

// ParseTrace decodes a whole trace, or a stream cut off mid-run: a
// final line without its newline that does not decode is the tail of
// an interrupted write and is left out, and the trace reads as
// incomplete. Spans are grouped by rank, in emission order within each.
func ParseTrace(data []byte) (Timeline, error) {
	var d Decoder
	for len(data) > 0 {
		line, rest, whole := bytes.Cut(data, []byte("\n"))
		if err := d.Line(line); err != nil && (whole || !d.open) {
			return Timeline{}, err
		}
		data = rest
	}
	if !d.open {
		return Timeline{}, d.errorf("no header line")
	}
	tl := d.Timeline
	// A live stream interleaves the ranks; restore the per-rank grouping
	// stably.
	sort.SliceStable(tl.Spans, func(i, j int) bool { return tl.Spans[i].Rank < tl.Spans[j].Rank })
	return tl, nil
}

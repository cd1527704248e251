package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
)

// sampleTracer builds a tracer exercising every span field: durations,
// instants, deferred transfers, peers, flow ids, payload counters and a
// cross-rank emission. The flow id and the int64 payloads of one span
// lie above 2^53, where a float64 detour would round them. The sink,
// when not nil, is attached before any Rank handle exists, as SetSink
// requires.
func sampleTracer(sink Sink) *Tracer {
	const flow = 1<<63 + 0xdeadbeef
	tr := NewTracer(2)
	tr.SetSink(sink)
	r0, r1 := tr.Rank(0), tr.Rank(1)
	r0.Emit(Span{Kind: KindCompute, Start: 0, Dur: 0.5, N: 1000})
	r0.Emit(Span{Kind: KindSlabRead, Label: "a", Start: 0.5, Dur: 0.25, N: 3, Bytes: 4096})
	r0.Emit(Span{Kind: KindReadReq, Label: "a", Start: 0.5, Bytes: 4096})
	r0.Emit(Span{Kind: KindSend, Start: 0.75, Dur: 0.125, Peer: 1, Flow: flow, Bytes: 64})
	r0.Emit(Span{Kind: KindSlabWrite, Label: "c", Start: 1.0, Dur: 0.0625, Deferred: true, N: 1, Bytes: 512})
	r0.Emit(Span{Kind: KindParityRMW, Label: "c", Start: 1.0, N: 3, M: 2, Bytes: 768, Bytes2: 256})
	r1.Emit(Span{Kind: KindWait, Start: 0, Dur: 0.875, Peer: 0, Flow: flow})
	r1.Emit(Span{Kind: KindRetry, Label: "b", Start: 0.9, Dur: 0.001953125})
	r1.Emit(Span{Kind: KindCollective, Label: "sum", Start: 0.9})
	r1.Emit(Span{Kind: KindParityRMW, Label: "big", Start: 1.5, N: 1<<60 + 3, M: 1<<53 + 1, Bytes: 1<<53 + 1, Bytes2: 1<<62 + 5})
	r0.Cross(1, Span{Kind: KindRecoveryComm, Start: 1.0, N: 7, Bytes: 3584})
	return tr
}

// sameTimeline fails t unless got carries want's spans exactly and is a
// complete, drop-free trace of procs ranks.
func sameTimeline(t *testing.T, got Timeline, procs int, want []Span) {
	t.Helper()
	if !got.Complete || got.Procs != procs || got.Dropped != 0 {
		t.Fatalf("complete=%v procs=%d dropped=%d, want true, %d, 0", got.Complete, got.Procs, got.Dropped, procs)
	}
	if len(got.Spans) != len(want) {
		t.Fatalf("trace carries %d of %d spans", len(got.Spans), len(want))
	}
	for i := range want {
		if got.Spans[i] != want[i] {
			t.Errorf("span %d changed\n%+v to\n%+v", i, want[i], got.Spans[i])
		}
	}
}

func TestChromeTraceRoundTripExact(t *testing.T) {
	tr := sampleTracer(nil)
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameTimeline(t, got, 2, tr.Spans())
}

func TestChromeTraceFlowEventsPair(t *testing.T) {
	tr := sampleTracer(nil)
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	starts, finishes := 0, 0
	var id any
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "s":
			starts++
			id = ev["id"]
		case "f":
			finishes++
			if ev["id"] != id {
				t.Errorf("flow finish id %v != start id %v", ev["id"], id)
			}
			if ev["bp"] != "e" {
				t.Errorf("flow finish must bind to the enclosing slice (bp=e), got %v", ev["bp"])
			}
		}
	}
	if starts != 1 || finishes != 1 {
		t.Errorf("flow events: %d starts, %d finishes, want 1 and 1", starts, finishes)
	}
}

func TestChromeTraceMetadataTracks(t *testing.T) {
	tr := sampleTracer(nil)
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			args := ev["args"].(map[string]any)
			names[ev["name"].(string)+":"+args["name"].(string)] = true
		}
	}
	for _, want := range []string{
		"process_name:rank 0", "process_name:rank 1",
		"thread_name:timeline", "thread_name:disk (overlapped)",
		"dropped_spans:dropped_spans",
	} {
		if !names[want] {
			t.Errorf("missing metadata event %q (have %v)", want, names)
		}
	}
}

// traceOf frames event lines as a one-rank trace: the header line, the
// rank's declaration, then lines as given.
func traceOf(lines ...string) string {
	return traceHeader + "\n" +
		`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},` + "\n" +
		strings.Join(lines, "\n") + "\n"
}

func TestParseTraceRejectsMalformed(t *testing.T) {
	const (
		compute = `{"name":"compute","cat":"compute","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"dur_s":1e-6}},`
		close0  = `{"name":"dropped_spans","ph":"M","pid":0,"tid":0,"args":{}}]}`
		close1  = `{"name":"dropped_spans","ph":"M","pid":0,"tid":0,"args":{"spans":1}}]}`
		close2  = `{"name":"dropped_spans","ph":"M","pid":0,"tid":0,"args":{"spans":2}}]}`
		send    = `{"name":"send","cat":"send","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"dur_s":1e-6,"flow":"1"}},`
		wait    = `{"name":"wait","cat":"wait","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"dur_s":1e-6,"flow":"1"}},`
		start   = `{"name":"shuffle","cat":"flow","ph":"s","ts":0,"pid":0,"tid":0,"id":"1"},`
		finish  = `{"name":"shuffle","cat":"flow","ph":"f","bp":"e","ts":1,"pid":0,"tid":0,"id":"1"},`
	)
	cases := map[string]string{
		"empty input":                    "",
		"not json":                       traceOf("{,"),
		"no header line":                 `{"foo": 1}` + "\n",
		"a whole document on one line":   `{"traceEvents":[]}` + "\n",
		"event sans name":                traceOf(`{"ph":"i","pid":0,"tid":0,"ts":0},`),
		"bad phase":                      traceOf(`{"name":"x","ph":"Q","pid":0,"tid":0,"ts":0},`),
		"X without dur":                  traceOf(`{"name":"compute","cat":"compute","ph":"X","pid":0,"tid":0,"ts":0},`),
		"negative dur":                   traceOf(`{"name":"compute","cat":"compute","ph":"X","pid":0,"tid":0,"ts":0,"dur":-1},`),
		"missing ts":                     traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"tid":0},`),
		"missing pid":                    traceOf(`{"name":"compute","cat":"compute","ph":"i","tid":0,"ts":0},`),
		"missing tid":                    traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"ts":0},`),
		"undeclared pid":                 traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":1,"tid":0,"ts":0},`),
		"ranks declared out of order":    traceOf(`{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"rank 2"}},`),
		"tid of no rank thread":          traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"tid":2,"ts":0},`),
		"unknown span category":          traceOf(`{"name":"x","cat":"bogus","ph":"i","pid":0,"tid":0,"ts":0},`),
		"unknown metadata event":         traceOf(`{"name":"bogus","ph":"M","pid":0,"tid":0},`),
		"unknown field":                  traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"tid":0,"ts":0,"nope":1},`),
		"unknown arg":                    traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"tid":0,"ts":0,"args":{"nope":1}},`),
		"negative start_s":               traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"tid":0,"ts":0,"args":{"start_s":-1}},`),
		"start_s beyond the display ts":  traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"tid":0,"ts":0,"args":{"start_s":1e305}},`),
		"int64 arg out of range":         traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"tid":0,"ts":0,"args":{"n":9223372036854775808}},`),
		"fractional int64 arg":           traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"tid":0,"ts":0,"args":{"bytes":1.5}},`),
		"bad flow id":                    traceOf(`{"name":"send","cat":"send","ph":"i","pid":0,"tid":0,"ts":0,"args":{"flow":"xyz"}},`),
		"two events on a line":           traceOf(`{"name":"a","ph":"M","pid":0} {"name":"b","ph":"M","pid":0},`),
		"line without its separator":     traceOf(`{"name":"compute","cat":"compute","ph":"i","pid":0,"tid":0,"ts":0}`),
		"unpaired flow start":            traceOf(start),
		"flow event of another id":       traceOf(send, strings.Replace(start, `"id":"1"`, `"id":"2"`, 1)),
		"send without its flow event":    traceOf(send, close1),
		"flow finish without its start":  traceOf(wait, finish, close1),
		"dropped_spans mid-trace":        traceOf(strings.TrimSuffix(close0, "]}") + ","),
		"closing line of another event":  traceOf(strings.TrimSuffix(compute, ",") + "]}"),
		"closing count mismatch":         traceOf(compute, close2),
		"negative drop count":            traceOf(`{"name":"dropped_spans","ph":"M","pid":0,"args":{"count":-1}}]}`),
		"content after the closing line": traceOf(compute, close1, compute),
	}
	for label, doc := range cases {
		_, err := ParseTrace([]byte(doc))
		if err == nil {
			t.Errorf("%s: parsed but should not", label)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: untyped error %v", label, err)
		}
	}
	// The same lines, framed well, parse — so each case above fails for
	// its own reason.
	for _, ok := range []string{traceOf(compute, close1), traceOf(send, start, wait, finish, close2)} {
		if _, err := ParseTrace([]byte(ok)); err != nil {
			t.Errorf("well-formed trace rejected: %v\n%s", err, ok)
		}
	}
}

// A stream cut off before its closing line, or in the middle of a line,
// still decodes up to its last whole line but reads as incomplete.
func TestParseTraceCutOff(t *testing.T) {
	var stream bytes.Buffer
	tr := sampleTracer(NewChromeSink(&stream, 2))
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	data := stream.Bytes()
	lastLine := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	for label, cut := range map[string][]byte{
		"before the closing line": data[:lastLine],
		"at the midpoint":         data[:len(data)/2],
		"inside the closing line": data[:len(data)-4],
	} {
		got, err := ParseTrace(cut)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.Complete {
			t.Fatalf("%s: a cut-off stream reads as complete", label)
		}
		if got.Procs != 2 || len(got.Spans) == 0 || len(got.Spans) > len(tr.Spans()) {
			t.Fatalf("%s: procs=%d spans=%d", label, got.Procs, len(got.Spans))
		}
	}
	got, err := ParseTrace(data[:lastLine])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != len(tr.Spans()) {
		t.Fatalf("a stream cut before its closing line carries %d of %d spans", len(got.Spans), len(tr.Spans()))
	}
}

// FuzzParseTrace: arbitrary bytes decode to a typed error, or to a
// timeline that re-exports and re-parses unchanged.
func FuzzParseTrace(f *testing.F) {
	var exported, streamed bytes.Buffer
	tr := sampleTracer(NewChromeSink(&streamed, 2))
	if err := tr.CloseSink(); err != nil {
		f.Fatal(err)
	}
	if err := tr.ExportChromeTrace(&exported); err != nil {
		f.Fatal(err)
	}
	s := streamed.Bytes()
	f.Add(exported.Bytes())
	f.Add(s)
	f.Add(s[:len(s)/2])
	f.Add(s[:bytes.LastIndexByte(s[:len(s)-1], '\n')+1])
	f.Add(bytes.Replace(s, []byte(`"spans":11`), []byte(`"spans":12`), 1))
	f.Add([]byte(traceHeader))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := ParseTrace(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		cs := NewChromeSink(&buf, tl.Procs)
		for _, s := range tl.Spans {
			cs.Emit(s.Rank, s)
		}
		cs.ReportDropped(tl.Dropped)
		if tl.Complete {
			err = cs.Close()
		} else {
			err = cs.Flush()
		}
		if err != nil {
			t.Fatalf("re-export: %v", err)
		}
		again, err := ParseTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("the re-export does not parse: %v\n%s", err, buf.Bytes())
		}
		if again.Procs != tl.Procs || again.Dropped != tl.Dropped || again.Complete != tl.Complete || !slices.Equal(again.Spans, tl.Spans) {
			t.Fatalf("re-export changed the timeline\n%+v to\n%+v", tl, again)
		}
	})
}

package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
)

// sameAsMarshal fails t unless the appending encoder's output got (and
// its error gotErr) is what json.Marshal makes of v: the same bytes, or
// an error from both.
func sameAsMarshal(t *testing.T, what string, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: encoder error %v, json.Marshal error %v", what, gotErr, wantErr)
	case wantErr == nil && !bytes.Equal(got, want):
		t.Fatalf("%s:\nencoder      %s\njson.Marshal %s", what, got, want)
	}
}

// checkSpan compares the span path and the generic path of the encoder
// with json.Marshal on s's event and flow event.
func checkSpan(t *testing.T, s Span) {
	t.Helper()
	what := fmt.Sprintf("span %+v", s)
	got, err := appendSpanEvent(nil, &s)
	sameAsMarshal(t, what, spanEvent(s), got, err)
	ev := spanEvent(s)
	got, err = appendEvent(nil, &ev)
	sameAsMarshal(t, what+" as an event", ev, got, err)
	got, ok, err := appendFlowEvent(nil, &s)
	fe, wantOK := flowEvent(s)
	if ok != wantOK {
		t.Fatalf("%s: flow event %v, want %v", what, ok, wantOK)
	}
	if ok {
		sameAsMarshal(t, what+" flow", fe, got, err)
	}
}

// Every event the sample tracer's stream carries — rank metadata, spans,
// flows and the closing line — encodes as json.Marshal encodes it.
func TestEncoderMatchesMarshalOnSampleTrace(t *testing.T) {
	for _, s := range sampleTracer(nil).Spans() {
		checkSpan(t, s)
	}
	for _, ev := range []jsonEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: &eventArgs{Name: "rank 1"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: tidDeferred, Args: &eventArgs{Name: "disk (overlapped)"}},
		{Name: "dropped_spans", Ph: "M", Args: &eventArgs{Name: "dropped_spans", Count: 3, Spans: 1 << 60}},
		{Name: "dropped_spans", Ph: "M", Args: &eventArgs{}},
	} {
		got, err := appendEvent(nil, &ev)
		sameAsMarshal(t, ev.Name, ev, got, err)
	}
}

// randString draws strings rich in what JSON escapes: quotes,
// backslashes, HTML-sensitive and control bytes, multi-byte runes,
// U+2028/U+2029 and invalid UTF-8.
func randString(r *rand.Rand) string {
	pieces := []string{"", "a", "c", "(parity)", `"`, `\`, "<", ">", "&", "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t",
		"\x7f", "é", "日本", "\u2028", "\u2029", "\xff", "\xe6\x97", " ", "\U0001F600", "\ufffd"}
	var b []byte
	for n := r.Intn(6); n > 0; n-- {
		b = append(b, pieces[r.Intn(len(pieces))]...)
	}
	return string(b)
}

// randFloat draws floats across encoding/json's formatting cutoffs
// (1e-6 and 1e21), signed zeros, subnormals and the values JSON cannot
// carry.
func randFloat(r *rand.Rand) float64 {
	switch r.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{1e-6, 1e21, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), 1e-7, 5e-324, math.MaxFloat64}[r.Intn(7)]
	case 3:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
	case 4:
		return -r.Float64()
	case 5:
		return math.Float64frombits(r.Uint64())
	default:
		return r.Float64() * math.Pow(10, float64(r.Intn(50)-25))
	}
}

func randInt(r *rand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return -r.Int63n(1000)
	case 2:
		return int64(r.Uint64())
	default:
		return r.Int63n(1 << 20)
	}
}

// Random spans, and random events of the whole jsonEvent/eventArgs
// shape, encode as json.Marshal encodes them, errors included.
func TestEncoderMatchesMarshalOnRandomEvents(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s := Span{Rank: int(randInt(r)), Kind: Kind(r.Intn(int(numKinds) + 1)), Label: randString(r),
			Start: randFloat(r), Dur: randFloat(r), Deferred: r.Intn(2) == 0, Peer: int(randInt(r)),
			N: randInt(r), M: randInt(r), Bytes: randInt(r), Bytes2: randInt(r)}
		if r.Intn(2) == 0 {
			s.Flow = r.Uint64()
		}
		checkSpan(t, s)

		ev := jsonEvent{Name: randString(r), Cat: randString(r), Ph: randString(r), TS: randFloat(r),
			PID: int(randInt(r)), TID: int(randInt(r)), S: randString(r), BP: randString(r), ID: randString(r)}
		if r.Intn(2) == 0 {
			d := randFloat(r)
			ev.Dur = &d
		}
		if r.Intn(4) != 0 {
			ev.Args = &eventArgs{Name: randString(r), Label: randString(r), Start: randFloat(r), Dur: randFloat(r),
				Peer: int(randInt(r)), Flow: randString(r), N: randInt(r), M: randInt(r), Bytes: randInt(r),
				Bytes2: randInt(r), Count: randInt(r), Spans: randInt(r)}
		}
		got, err := appendEvent(nil, &ev)
		sameAsMarshal(t, fmt.Sprintf("event %d", i), ev, got, err)
	}
}

// A streamed span costs the sink no allocation once its line buffer has
// grown: labelled transfers, linked sends and waits with their flow
// events, and instants alike.
func TestChromeSinkEmitMakesNoAllocation(t *testing.T) {
	sink := NewChromeSink(io.Discard, 2)
	spans := sampleTracer(nil).Spans()
	for _, s := range spans {
		sink.Emit(s.Rank, s)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, s := range spans {
			sink.Emit(s.Rank, s)
		}
	}); n != 0 {
		t.Fatalf("Emit allocates %v times per pass over %d spans, want 0", n, len(spans))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

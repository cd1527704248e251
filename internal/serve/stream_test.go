package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/trace"
)

// TestJobTraceStreamMatchesResponseTrace is the serve-level exactness
// check: the span stream retained for a traced job, fetched whole, is a
// complete trace carrying the same span sequence as the buffered trace
// in the job's own response.
func TestJobTraceStreamMatchesResponseTrace(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := s.Submit(context.Background(), Request{N: 32, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) == 0 {
		t.Fatal("traced job returned no trace artifact")
	}
	buffered, err := trace.ParseTrace(resp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if buffered.Dropped != 0 {
		t.Fatalf("buffered trace records %d drops", buffered.Dropped)
	}

	// The finished stream is retained: a late subscriber still gets the
	// whole backlog.
	hr, err := http.Get(ts.URL + "/jobs/" + resp.JobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d: %s", hr.StatusCode, body)
	}
	if got := hr.Header.Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Errorf("trace Content-Type = %q", got)
	}
	if got := hr.Header.Get("X-Stream-Complete"); got != "true" {
		t.Errorf("X-Stream-Complete = %q, want true", got)
	}
	streamed, err := trace.ParseTrace(body)
	if err != nil {
		t.Fatal(err)
	}
	sameSpans(t, streamed, buffered)

	// The listing surfaces the retained stream.
	lr, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []JobStreamInfo `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	found := false
	for _, ji := range listing.Jobs {
		if ji.ID == resp.JobID {
			found = true
			if ji.Live {
				t.Errorf("finished job %s still listed live", ji.ID)
			}
		}
	}
	if !found {
		t.Fatalf("job %s missing from GET /jobs listing %+v", resp.JobID, listing.Jobs)
	}
}

// sameSpans fails t unless streamed is a complete, drop-free trace
// carrying buffered's ranks and spans exactly.
func sameSpans(t *testing.T, streamed, buffered trace.Timeline) {
	t.Helper()
	if !streamed.Complete || streamed.Procs != buffered.Procs || streamed.Dropped != 0 {
		t.Fatalf("stream complete=%v procs=%d dropped=%d, want true, %d, 0",
			streamed.Complete, streamed.Procs, streamed.Dropped, buffered.Procs)
	}
	if len(streamed.Spans) != len(buffered.Spans) {
		t.Fatalf("stream carries %d spans, response trace %d", len(streamed.Spans), len(buffered.Spans))
	}
	for i, want := range buffered.Spans {
		if got := streamed.Spans[i]; got != want {
			t.Fatalf("span %d differs:\nstream %+v\nbuffered %+v", i, got, want)
		}
	}
}

// TestJobTraceFollowSSE drives the ?follow=1 surface: SSE frames carry
// the trace lines, and the stream terminates with an end event once the
// job is done.
func TestJobTraceFollowSSE(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := s.Submit(context.Background(), Request{N: 32, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Get(ts.URL + "/jobs/" + resp.JobID + "/trace?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if got := hr.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Errorf("follow Content-Type = %q", got)
	}
	var lines bytes.Buffer
	sawEnd := false
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			sawEnd = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && !sawEnd {
			lines.WriteString(data)
			lines.WriteString("\n")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEnd {
		t.Fatal("follow stream did not terminate with an end event")
	}
	streamed, err := trace.ParseTrace(lines.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := trace.ParseTrace(resp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	sameSpans(t, streamed, buffered)
}

func TestJobTraceUnknownJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hr, err := http.Get(ts.URL + "/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", hr.StatusCode)
	}
}

// TestJobStreamFollowBlocksUntilAppend pins the cond-var hand-off: a
// follower parked on next() wakes for new lines and for completion, and
// a line split across writes arrives whole.
func TestJobStreamFollowBlocksUntilAppend(t *testing.T) {
	st := newJobStream()
	got := make(chan []byte, 1)
	go func() {
		line, _ := st.next(context.Background(), 0)
		got <- line
	}()
	time.Sleep(10 * time.Millisecond)
	st.Write([]byte("hel"))
	st.Write([]byte("lo\n"))
	select {
	case line := <-got:
		if string(line) != "hello" {
			t.Fatalf("follower got %q", line)
		}
	case <-time.After(time.Second):
		t.Fatal("follower never woke for the appended line")
	}

	done := make(chan struct{})
	go func() {
		if line, _ := st.next(context.Background(), 1); line != nil {
			t.Errorf("follower got %q after finish", line)
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	st.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("follower never woke for finish")
	}

	// A cancelled context also unparks the follower.
	ctx, cancel := context.WithCancel(context.Background())
	st2 := newJobStream()
	done2 := make(chan struct{})
	go func() {
		st2.next(ctx, 0)
		close(done2)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done2:
	case <-time.After(time.Second):
		t.Fatal("follower never woke for context cancellation")
	}
}

// TestStreamRetentionCapsSpans pins the memory bound: a stream past
// maxStreamSpans drops spans (counted honestly on the closing line, on
// top of the tracer's own drops) instead of growing without bound, and
// stays a trace that parses.
func TestStreamRetentionCapsSpans(t *testing.T) {
	st := newJobStream()
	sink := newStreamSink(st, 1)
	for i := 0; i < maxStreamSpans+100; i++ {
		sink.Emit(0, trace.Span{Kind: trace.KindCompute, Start: float64(i), Dur: 1})
	}
	sink.ReportDropped(3)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines, done := st.snapshot()
	if !done {
		t.Fatal("stream not finished after Close")
	}
	// The header, the rank's three declarations, the kept spans and the
	// closing line.
	if len(lines) != 1+3+maxStreamSpans+1 {
		t.Fatalf("stream retained %d lines, want %d", len(lines), 1+3+maxStreamSpans+1)
	}
	tl, err := trace.ParseTrace(append(bytes.Join(lines, []byte("\n")), '\n'))
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Complete || len(tl.Spans) != maxStreamSpans || tl.Dropped != 103 {
		t.Fatalf("stream complete=%v spans=%d dropped=%d, want true, %d, 103", tl.Complete, len(tl.Spans), tl.Dropped, maxStreamSpans)
	}
}

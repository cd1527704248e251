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
	"sync"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/trace"
)

// reconcileStream fails t unless body is a complete, drop-free trace of
// the reply's ranks whose spans replay to the reply's stats exactly.
func reconcileStream(t *testing.T, body []byte, resp *Response) trace.Timeline {
	t.Helper()
	tl, err := trace.ParseTrace(body)
	if err != nil {
		t.Fatalf("job %s: %v", resp.JobID, err)
	}
	if !tl.Complete || tl.Dropped != 0 || tl.Procs != len(resp.Stats.Procs) {
		t.Fatalf("job %s: stream complete=%v dropped=%d procs=%d, want true, 0, %d",
			resp.JobID, tl.Complete, tl.Dropped, tl.Procs, len(resp.Stats.Procs))
	}
	if err := trace.Reconcile(tl.Spans, &trace.Stats{Procs: resp.Stats.Procs}, nil); err != nil {
		t.Fatalf("job %s: the stream does not replay to the reply's stats:\n%v", resp.JobID, err)
	}
	return tl
}

// getTrace fetches a job's whole span stream, which must be finished.
func getTrace(t *testing.T, base, id string) []byte {
	t.Helper()
	hr, err := http.Get(base + "/jobs/" + id + "/trace")
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
	return body
}

// listedSpans returns the span counts GET /jobs lists, by job id.
func listedSpans(t *testing.T, base string) map[string]int64 {
	t.Helper()
	lr, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var listing struct {
		Jobs []JobStreamInfo `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(listing.Jobs))
	for _, ji := range listing.Jobs {
		if ji.Live {
			t.Errorf("finished job %s still listed live", ji.ID)
		}
		out[ji.ID] = ji.Spans
	}
	return out
}

// TestJobTraceStreamReconcilesWithReplyStats is the serve-level
// exactness check: the span stream retained for a traced 4-rank job,
// fetched whole, is a complete trace that replays to the statistics in
// the job's own reply.
func TestJobTraceStreamReconcilesWithReplyStats(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := s.Submit(context.Background(), Request{N: 64, Procs: 4, MemElems: 1 << 12, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// The finished stream is retained: a late subscriber still gets the
	// whole backlog.
	reconcileStream(t, getTrace(t, ts.URL, resp.JobID), resp)
}

// TestJobsListsStreamSpans checks the spans count GET /jobs lists for a
// finished traced 4-rank gaxpy job: it is the number of spans the
// stream holds, not its line count, which also takes in the header, the
// per-rank declarations, the flow events and the closing line.
func TestJobsListsStreamSpans(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := s.Submit(context.Background(), Request{N: 64, Procs: 4, MemElems: 1 << 12, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	body := getTrace(t, ts.URL, resp.JobID)
	streamed := reconcileStream(t, body, resp)
	if lines := bytes.Count(body, []byte("\n")); len(streamed.Spans) >= lines {
		t.Fatalf("stream of %d lines parses to %d spans, want fewer spans than lines", lines, len(streamed.Spans))
	}
	spans, ok := listedSpans(t, ts.URL)[resp.JobID]
	if !ok {
		t.Fatalf("job %s missing from the GET /jobs listing", resp.JobID)
	}
	if spans != int64(len(streamed.Spans)) {
		t.Fatalf("GET /jobs lists %d spans, the stream holds %d", spans, len(streamed.Spans))
	}
}

// TestConcurrentServedStreamsLoseNothing runs twice as many traced jobs
// as workers at once, over three programs. Every finished stream is
// complete, records no drops and replays exactly to its own reply's
// stats, and a stream's listed span count never goes down while its job
// runs.
func TestConcurrentServedStreamsLoseNothing(t *testing.T) {
	mix := testMix(t)
	kinds := []Request{mix[0], mix[1], mix[3]} // gaxpy, transpose, columnstencil
	s := New(Config{Workers: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const jobs = 12
	resps := make([]*Response, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := kinds[i%len(kinds)]
			req.Trace = true
			resps[i], errs[i] = s.Submit(context.Background(), req)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	seen := map[string]int64{}
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		case <-time.After(time.Millisecond):
		}
		for _, ji := range s.StreamIDs() {
			if ji.Spans < seen[ji.ID] {
				t.Fatalf("job %s: listed spans fell from %d to %d", ji.ID, seen[ji.ID], ji.Spans)
			}
			seen[ji.ID] = ji.Spans
		}
	}
	listed := listedSpans(t, ts.URL)
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		tl := reconcileStream(t, getTrace(t, ts.URL, resp.JobID), resp)
		if listed[resp.JobID] != int64(len(tl.Spans)) {
			t.Fatalf("job %s: GET /jobs lists %d spans, the stream holds %d", resp.JobID, listed[resp.JobID], len(tl.Spans))
		}
	}
}

// TestJobTraceFollowSSE drives the ?follow=1 surface: SSE frames carry
// the trace lines, the stream terminates with an end event once the job
// is done, and the lines replay to the reply's stats.
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
	reconcileStream(t, lines.Bytes(), resp)
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
// maxStreamSpans drops spans (counted honestly on the closing line)
// instead of growing without bound, and stays a trace that parses.
func TestStreamRetentionCapsSpans(t *testing.T) {
	st := newJobStream()
	sink := newStreamSink(st, 1)
	for i := 0; i < maxStreamSpans+100; i++ {
		sink.Emit(0, trace.Span{Kind: trace.KindCompute, Start: float64(i), Dur: 1})
	}
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
	if !tl.Complete || len(tl.Spans) != maxStreamSpans || tl.Dropped != 100 {
		t.Fatalf("stream complete=%v spans=%d dropped=%d, want true, %d, 100", tl.Complete, len(tl.Spans), tl.Dropped, maxStreamSpans)
	}
}

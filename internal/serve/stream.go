package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/ooc-hpf/passion/internal/trace"
)

// Live span streaming: a traced job's tracer feeds a streamSink, which
// writes the job's trace through a trace.ChromeSink, one event per
// line, into the job's jobStream — an append-only line log with a
// condition variable, so any number of HTTP subscribers can follow it
// (each from the full backlog) without ever back-pressuring the run.
// A finished stream is the whole trace document. Finished streams are
// retained for a bounded window so a tail that races job completion
// still sees the whole stream and its closing line.

// maxStreamSpans bounds one job's retained stream; spans beyond it are
// left out (and honestly counted on the closing line) rather than
// growing without bound. It is the only way a span goes missing from a
// served trace.
const maxStreamSpans = 1 << 17

// retainedStreams bounds how many finished job streams stay readable.
const retainedStreams = 32

// jobStream is one job's append-only line log. As an io.WriteCloser it
// takes the trace writer's output, which may split a line across
// writes, and Close marks the stream finished.
type jobStream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	lines   [][]byte
	partial []byte // the start of a line whose newline has not arrived
	done    bool
	// spans counts the span events among lines (GET /jobs lists it).
	spans atomic.Int64
}

func newJobStream() *jobStream {
	st := &jobStream{}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// Write appends the whole lines in p, keeping an unfinished one for the
// next write, and wakes the followers.
func (st *jobStream) Write(p []byte) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(p)
	for {
		line, rest, whole := bytes.Cut(p, []byte("\n"))
		if !whole {
			st.partial = append(st.partial, line...)
			break
		}
		st.lines = append(st.lines, append(st.partial, line...))
		st.partial, p = nil, rest
	}
	st.cond.Broadcast()
	return n, nil
}

// Close marks the stream complete and wakes all followers.
func (st *jobStream) Close() error {
	st.mu.Lock()
	st.done = true
	st.cond.Broadcast()
	st.mu.Unlock()
	return nil
}

// next blocks until a line past idx exists (returning it and idx+1) or
// the stream is done with no more lines (nil, idx). Cancelling ctx also
// returns nil.
func (st *jobStream) next(ctx context.Context, idx int) ([]byte, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	stop := context.AfterFunc(ctx, st.cond.Broadcast)
	defer stop()
	for {
		if idx < len(st.lines) {
			return st.lines[idx], idx + 1
		}
		if st.done || ctx.Err() != nil {
			return nil, idx
		}
		st.cond.Wait()
	}
}

// snapshot returns the lines accumulated so far and whether the stream
// has finished.
func (st *jobStream) snapshot() ([][]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lines[:len(st.lines):len(st.lines)], st.done
}

// streamSink adapts a jobStream to trace.Sink. Each span's lines are
// flushed as they are written, so followers see it at once (a jobStream
// write never fails, and a ChromeSink error is sticky and surfaces on
// Close); spans past maxStreamSpans are left out, and the closing line
// counts them as dropped.
type streamSink struct {
	cs     *trace.ChromeSink
	st     *jobStream
	capped int64
}

func newStreamSink(st *jobStream, procs int) *streamSink {
	k := &streamSink{cs: trace.NewChromeSink(st, procs), st: st}
	k.cs.Flush()
	return k
}

func (k *streamSink) Emit(rank int, s trace.Span) {
	if k.st.spans.Load() >= maxStreamSpans {
		k.capped++
		return
	}
	k.cs.Emit(rank, s)
	k.cs.Flush()
	k.st.spans.Add(1)
}

func (k *streamSink) Flush() error { return k.cs.Flush() }

// Close writes the closing line, with the capped spans as its drop
// count, and finishes the stream.
func (k *streamSink) Close() error {
	k.cs.ReportDropped(k.capped)
	return k.cs.Close()
}

// openStream registers a live stream for a traced job, retiring the
// oldest retained finished stream beyond the cap.
func (s *Server) openStream(id string) *jobStream {
	st := newJobStream()
	s.streamMu.Lock()
	if s.streams == nil {
		s.streams = make(map[string]*jobStream)
	}
	s.streams[id] = st
	s.streamOrder = append(s.streamOrder, id)
	for len(s.streamOrder) > retainedStreams {
		victim := ""
		for _, cand := range s.streamOrder {
			if cs := s.streams[cand]; cs != nil && cs != st {
				cs.mu.Lock()
				finished := cs.done
				cs.mu.Unlock()
				if finished {
					victim = cand
					break
				}
			}
		}
		if victim == "" {
			break // every retained stream is still live; keep them all
		}
		delete(s.streams, victim)
		s.streamOrder = removeString(s.streamOrder, victim)
	}
	s.streamMu.Unlock()
	return st
}

func removeString(ss []string, v string) []string {
	out := ss[:0]
	for _, x := range ss {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// stream looks up a job's span stream.
func (s *Server) stream(id string) *jobStream {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return s.streams[id]
}

// StreamIDs lists the jobs with a live or retained span stream, oldest
// first, with liveness.
func (s *Server) StreamIDs() []JobStreamInfo {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	out := make([]JobStreamInfo, 0, len(s.streamOrder))
	for _, id := range s.streamOrder {
		st := s.streams[id]
		if st == nil {
			continue
		}
		st.mu.Lock()
		live := !st.done
		st.mu.Unlock()
		out = append(out, JobStreamInfo{ID: id, Live: live, Spans: st.spans.Load()})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// JobStreamInfo describes one entry of the GET /jobs listing.
type JobStreamInfo struct {
	ID    string `json:"id"`
	Live  bool   `json:"live"`
	Spans int64  `json:"spans"`
}

// handleJobList serves GET /jobs: the traced jobs whose span streams
// are live or retained — the discovery surface for ooc-trace tail.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": s.StreamIDs()})
}

// handleJobTrace serves GET /jobs/{id}/trace. Without follow it returns
// the trace lines accumulated so far — for a finished job, the whole
// trace document; with ?follow=1 it streams the backlog and then new
// lines as SSE events (one trace line per data frame) until the job
// finishes or the client disconnects.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.stream(id)
	if st == nil {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("no span stream for job %q (not traced, or retention expired)", id))
		return
	}
	if r.URL.Query().Get("follow") == "" {
		lines, done := st.snapshot()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("X-Stream-Complete", strconv.FormatBool(done))
		for _, line := range lines {
			w.Write(line)
			w.Write([]byte("\n"))
		}
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	flush()
	ctx := r.Context()
	idx := 0
	for {
		line, nxt := st.next(ctx, idx)
		if line == nil {
			break
		}
		idx = nxt
		if _, err := fmt.Fprintf(w, "data: %s\n\n", line); err != nil {
			return
		}
		flush()
	}
	fmt.Fprint(w, "event: end\ndata: {}\n\n")
	flush()
}

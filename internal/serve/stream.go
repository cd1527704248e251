package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"github.com/ooc-hpf/passion/internal/trace"
)

// Live span streaming: a traced job's tracer feeds a streamSink, which
// renders each span as its NDJSON line into the job's jobStream — an
// append-only line log with a condition variable, so any number of
// HTTP subscribers can follow it (each from the full backlog) without
// ever back-pressuring the run. Finished streams are retained for a
// bounded window so a tail that races job completion still sees the
// whole stream plus its trailer.

// maxStreamLines bounds one job's retained stream; lines beyond it are
// dropped (and honestly counted in the trailer) rather than growing
// without bound.
const maxStreamLines = 1 << 17

// retainedStreams bounds how many finished job streams stay readable.
const retainedStreams = 32

// jobStream is one job's append-only NDJSON line log.
type jobStream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	lines   [][]byte
	dropped int64 // lines rejected by maxStreamLines
	done    bool
}

func newJobStream() *jobStream {
	st := &jobStream{}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// append adds one line, reporting false when the retention cap dropped
// it. The final (trailer) line is always admitted.
func (st *jobStream) append(line []byte, trailer bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.lines) >= maxStreamLines && !trailer {
		st.dropped++
		return false
	}
	st.lines = append(st.lines, line)
	st.cond.Broadcast()
	return true
}

// finish marks the stream complete and wakes all followers.
func (st *jobStream) finish() {
	st.mu.Lock()
	st.done = true
	st.cond.Broadcast()
	st.mu.Unlock()
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

// streamSink adapts a jobStream to trace.Sink: spans become NDJSON
// lines as they close, and Close appends the stream trailer carrying
// exact span and drop counts (tracer-side hand-off drops plus the
// stream's own retention drops).
type streamSink struct {
	st      *jobStream
	spans   int64
	dropped int64
	err     error
}

func (k *streamSink) Emit(rank int, s trace.Span) {
	if k.err != nil {
		return
	}
	s.Rank = rank
	line, err := trace.MarshalSpan(s)
	if err != nil {
		k.err = err
		return
	}
	if k.st.append(line, false) {
		k.spans++
	}
}

func (k *streamSink) ReportDropped(n int64) { k.dropped = n }

func (k *streamSink) Flush() error { return k.err }

func (k *streamSink) Close() error {
	k.st.mu.Lock()
	capDrops := k.st.dropped
	k.st.mu.Unlock()
	tr := trace.StreamTrailer{Trailer: true, Spans: k.spans, Dropped: k.dropped + capDrops}
	if line, err := json.Marshal(tr); err == nil {
		k.st.append(line, true)
	} else if k.err == nil {
		k.err = err
	}
	k.st.finish()
	return k.err
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
		info := JobStreamInfo{ID: id, Live: !st.done, Spans: int64(len(st.lines))}
		st.mu.Unlock()
		out = append(out, info)
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
// the NDJSON accumulated so far; with ?follow=1 it streams the backlog
// and then new spans as SSE events (one NDJSON line per data frame)
// until the job finishes or the client disconnects.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.stream(id)
	if st == nil {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("no span stream for job %q (not traced, or retention expired)", id))
		return
	}
	if r.URL.Query().Get("follow") == "" {
		lines, done := st.snapshot()
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
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

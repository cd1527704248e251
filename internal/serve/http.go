package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Handler returns the server's HTTP API:
//
//	POST /jobs             submit a Request, block until done, stream
//	                       the Response
//	GET  /jobs             list traced jobs with live or retained span
//	                       streams
//	GET  /jobs/{id}/trace  the job's trace, one Chrome trace event per
//	                       line (a finished job's is the whole document);
//	                       ?follow=1 streams the lines live over SSE
//	GET  /healthz          200 {"ok":true,...} while accepting, 503
//	                       while draining or degraded; carries build info
//	GET  /metrics          the Metrics snapshot — JSON by default,
//	                       Prometheus text exposition when the Accept
//	                       header asks for text/plain (or with
//	                       ?format=prometheus)
//
// With Config.Pprof, the net/http/pprof profiling surface is mounted
// under /debug/pprof/.
//
// Retryable rejections (429 busy, 503 draining/degraded) carry a
// Retry-After header and a retry_after_ms body field advising when to
// try again; clients should back off at least that long, with a cap.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r.Body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.Submit(r.Context(), req)
	if err != nil {
		// A retryable rejection advises how long to back off.
		c := classOf(err)
		if ra := c.retry; ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int((ra+time.Second-1)/time.Second)))
			s.writeJSON(w, c.status, map[string]any{
				"error":          err.Error(),
				"retry_after_ms": ra.Milliseconds(),
			})
			return
		}
		s.httpError(w, c.status, err)
		return
	}
	s.writeResponse(w, resp)
}

// replyBytes sizes the arena buffer a reply is encoded into: room for
// the top-level fields and totals, and for every rank's statistics with
// most of their counters set.
func replyBytes(resp *Response) int { return 1024 + 512*len(resp.Stats.Procs) }

// writeResponse replies with resp as appendResponse encodes it, from an
// arena buffer; the same failure rules as writeJSON hold.
func (s *Server) writeResponse(w http.ResponseWriter, resp *Response) {
	buf := bufpool.GetBytes(replyBytes(resp))
	body, err := appendResponse(buf[:0], resp)
	s.writeBody(w, http.StatusOK, body, err)
	bufpool.PutBytes(buf) // a reply that outgrew buf left it unused
}

// appendResponse appends the wire form of resp: its top-level fields as
// json.Marshal writes them, then its statistics as trace.AppendSnapshot
// writes them, without their zero counters. The bytes are compact JSON
// escaped as json.Marshal escapes it, and they decode with encoding/json
// to resp bit for bit. A NaN or an infinity anywhere is an error.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	dst = trace.AppendString(append(dst, `{"job_id":`...), resp.JobID)
	dst = trace.AppendString(append(dst, `,"tenant":`...), resp.Tenant)
	dst = trace.AppendString(append(dst, `,"program":`...), resp.Program)
	dst = trace.AppendString(append(dst, `,"strategy":`...), resp.Strategy)
	dst = trace.AppendString(append(dst, `,"plan_fingerprint":`...), resp.PlanFingerprint)
	dst = strconv.AppendBool(append(dst, `,"cache_hit":`...), resp.CacheHit)
	dst = strconv.AppendInt(append(dst, `,"attempts":`...), int64(resp.Attempts), 10)
	dst = strconv.AppendInt(append(dst, `,"recoveries":`...), int64(resp.Recoveries), 10)
	if resp.Resumed {
		dst = append(dst, `,"resumed":true`...)
	}
	if resp.Deduplicated {
		dst = append(dst, `,"deduplicated":true`...)
	}
	dst, err := trace.AppendFloat(append(dst, `,"sim_seconds":`...), resp.SimSeconds)
	if err != nil {
		return dst, err
	}
	dst, err = trace.AppendSnapshot(append(dst, `,"stats":`...), &resp.Stats)
	return append(dst, '}'), err
}

// decodeRequest reads one job spec off the wire. A field the server does
// not know is an error, not a silently ignored option.
func decodeRequest(r io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("decoding request: %w", err)
	}
	for _, p := range []struct {
		field string
		v     float64
	}{{"chaos", req.Chaos}, {"chaos_corrupt", req.ChaosCorrupt}} {
		if err := cliutil.CheckProbability(p.v); err != nil {
			return Request{}, fmt.Errorf("%s: %w", p.field, err)
		}
	}
	return req, nil
}

// compileError marks request-side failures (bad source, bad machine
// name) so the HTTP layer reports them as the client's fault.
type compileError struct{ err error }

func (e *compileError) Error() string { return e.err.Error() }
func (e *compileError) Unwrap() error { return e.err }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version := cliutil.Version()
	if s.Degraded() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "degraded": true, "version": version})
		return
	}
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "draining": true, "version": version})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"ok": true, "version": version})
}

// handleMetrics serves the metrics snapshot. JSON stays the default for
// back-compat; a scraper asking for text/plain (or openmetrics) in
// Accept — or forcing ?format=prometheus — gets the Prometheus text
// exposition. Either way the payload is a point-in-time snapshot, so
// caches must not hold it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.WritePrometheus(w)
		return
	}
	s.writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// writeJSON replies with v as one line of compact JSON and a newline,
// encoded once and sent in one Write under its Content-Length. It encodes
// before it commits to a status: a value that does not encode (a NaN
// anywhere in it) is logged and answered 500 with an error body, not sent
// as status with nothing after it.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	s.writeBody(w, status, body, err)
}

// writeBody replies with body, one line of compact JSON, and a newline,
// or, when err says the reply did not encode, logs it and answers 500.
func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		s.log.Error("reply not encodable", "status", status, "error", err.Error())
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "serve: encoding the reply: " + err.Error()})
	}
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) // a client gone mid-reply is nobody left to tell
}

func (s *Server) httpError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

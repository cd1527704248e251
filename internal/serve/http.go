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

	"github.com/ooc-hpf/passion/internal/cliutil"
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
	s.writeJSON(w, http.StatusOK, resp)
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

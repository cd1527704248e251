package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/trace"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp, m
}

// readReply reads a JSON reply whole and checks the contract every one
// keeps: one line of compact JSON and a newline, under a Content-Length
// that counts exactly those bytes.
func readReply(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
		t.Errorf("%s: Content-Length %q (%d) for a body of %d bytes",
			resp.Request.URL.Path, resp.Header.Get("Content-Length"), resp.ContentLength, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("%s: Content-Type %q", resp.Request.URL.Path, ct)
	}
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	var compact bytes.Buffer
	if err := json.Compact(&compact, line); !ok || err != nil || !bytes.Equal(compact.Bytes(), line) {
		t.Errorf("%s: body is not one line of compact JSON and a newline (%v):\n%s", resp.Request.URL.Path, err, body)
	}
	return body
}

// TestHTTPReplyContract: a job's reply, the metrics, the health check, a
// 400 and a 429 that carries retry_after_ms are each one line of compact
// JSON under an exact Content-Length, and a job's reply is byte for byte
// appendResponse of the Response that Submit returns for the same
// request, and decodes to it.
func TestHTTPReplyContract(t *testing.T) {
	s := New(Config{Workers: 1, QueueLimit: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	const spec = `{"n":64,"procs":4,"mem_elems":4096,"tenant":"curl"}`
	want, err := s.Submit(context.Background(), Request{N: 64, Procs: 4, MemElems: 4096, Tenant: "curl"})
	if err != nil {
		t.Fatal(err)
	}
	body := readReply(t, post(spec))
	var got Response
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	// The same request a second time: another job, and a cache hit.
	want.JobID, want.CacheHit = got.JobID, true
	w, err := appendResponse(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if w = append(w, '\n'); !bytes.Equal(body, w) {
		t.Errorf("POST /jobs reply\n%s\nis not Submit's Response\n%s", body, w)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("the reply does not decode to Submit's Response")
	}

	readReply(t, get("/metrics"))
	readReply(t, get("/healthz"))
	if resp := post(`{"n":`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec: status %d, want 400", resp.StatusCode)
	} else {
		readReply(t, resp)
	}

	// A full queue: the one worker held at pickup, one job queued behind
	// it, and the next is turned away. Each job is in place before the
	// next is submitted, or the second would find the first still queued.
	release := make(chan struct{})
	s.pickupGate = func(*job) { <-release }
	var wg sync.WaitGroup
	for _, want := range []struct{ inflight, queued int }{{1, 0}, {1, 1}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), Request{N: 64, Procs: 4, MemElems: 4096}); err != nil {
				t.Error(err)
			}
		}()
		for m := s.MetricsSnapshot(); m.Inflight != want.inflight || m.QueueDepth != want.queued; m = s.MetricsSnapshot() {
			time.Sleep(time.Millisecond)
		}
	}
	resp := post(spec)
	close(release)
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit on a full queue: status %d, want 429", resp.StatusCode)
	}
	var busy map[string]any
	if err := json.Unmarshal(readReply(t, resp), &busy); err != nil {
		t.Fatal(err)
	}
	if busy["retry_after_ms"] != float64(10) {
		t.Errorf("429 body %v, want retry_after_ms 10", busy)
	}
}

// TestUnencodableReplyIs500: a reply that cannot be encoded (a NaN in it)
// is answered 500 with an error body and logged, where it used to go out
// as a 200 with nothing after the header — a JSON reply and a job's
// reply, whose NaN is in its statistics, alike.
func TestUnencodableReplyIs500(t *testing.T) {
	resp := &Response{JobID: "job-1", SimSeconds: 1, Stats: trace.Snapshot{Procs: make([]trace.ProcStats, 2)}}
	resp.Stats.Procs[1].Comm.DetectSeconds = math.NaN()
	for name, write := range map[string]func(*Server, http.ResponseWriter){
		"writeJSON": func(s *Server, w http.ResponseWriter) {
			s.writeJSON(w, http.StatusOK, map[string]float64{"sim_seconds": math.NaN()})
		},
		"writeResponse": func(s *Server, w http.ResponseWriter) { s.writeResponse(w, resp) },
	} {
		var logged bytes.Buffer
		s := &Server{log: slog.New(slog.NewTextHandler(&logged, nil))}
		rec := httptest.NewRecorder()
		write(s, rec)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500", name, rec.Code)
		}
		var m map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || !strings.Contains(m["error"], "NaN") {
			t.Errorf("%s: body %q (%v), want an error naming the NaN", name, rec.Body, err)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for %d bytes", name, got, rec.Body.Len())
		}
		if !strings.Contains(logged.String(), "reply not encodable") {
			t.Errorf("%s: the failure was not logged: %q", name, logged.String())
		}
	}
}

// TestAppendResponseMatchesMarshal: a Response's top-level fields encode
// as json.Marshal encodes them, byte for byte, under strings that need
// escaping, and its statistics as trace.AppendSnapshot encodes them; the
// reply decodes to the Response. Every field is checked set, so a field
// added to Response is in the comparison.
func TestAppendResponseMatchesMarshal(t *testing.T) {
	resp := Response{JobID: "job-<1>", Tenant: "t&\u2028é", Program: `"gaxpy"\`, Strategy: "row\n",
		PlanFingerprint: "\x00f", CacheHit: true, Attempts: 2, Recoveries: -1, Resumed: true,
		Deduplicated: true, SimSeconds: 1e-7, Stats: trace.Snapshot{ElapsedSeconds: 1e21, Procs: make([]trace.ProcStats, 2)}}
	resp.Stats.Procs[1].IO.ReadSizes.Counts[3] = 4
	resp.Stats.TotalComm.DetectSeconds = math.Copysign(0, -1)
	v := reflect.ValueOf(resp)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("Response.%s is not set", v.Type().Field(i).Name)
		}
	}
	got, err := appendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	head, _, _ := bytes.Cut(mustJSON(t, resp), []byte(`,"stats":`))
	stats, err := trace.AppendSnapshot(nil, &resp.Stats)
	if want := fmt.Appendf(nil, `%s,"stats":%s}`, head, stats); err != nil || !bytes.Equal(got, want) {
		t.Errorf("appendResponse\n%s\nwant\n%s (%v)", got, want, err)
	}
	var back Response
	if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, resp) ||
		math.Float64bits(back.Stats.TotalComm.DetectSeconds) != math.Float64bits(resp.Stats.TotalComm.DetectSeconds) {
		t.Errorf("%s decodes to %+v (%v), want %+v", got, back, err, resp)
	}
}

// TestDeduplicatedReplyDecodesToSubmit: a keyed job's reply and the
// reply to its retried submit, served from the retained outcome, each
// decode to the Response Submit returns, the second marked deduplicated.
func TestDeduplicatedReplyDecodesToSubmit(t *testing.T) {
	s, err := Open(Config{Workers: 1, Journal: &JournalConfig{FS: iosim.NewMemFS()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	want, err := s.Submit(context.Background(), Request{N: 64, Procs: 4, MemElems: 4096, Parity: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, dedup := range []bool{false, true} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"n":64,"procs":4,"mem_elems":4096,"parity":true,"idempotency_key":"k"}`))
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		if err := json.Unmarshal(readReply(t, resp), &got); err != nil {
			t.Fatal(err)
		}
		if got.Deduplicated != dedup {
			t.Fatalf("reply %d: deduplicated %v, want %v", i, got.Deduplicated, dedup)
		}
		want.JobID, want.CacheHit, want.Deduplicated = got.JobID, true, dedup
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("reply %d decodes to\n%+v\nnot Submit's Response\n%+v", i, got, *want)
		}
	}
}

func TestHTTPJobRoundTrip(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, m := postJob(t, ts, `{"n":64,"procs":4,"mem_elems":4096,"tenant":"curl"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, m)
	}
	for _, key := range []string{"job_id", "plan_fingerprint", "strategy", "sim_seconds", "stats"} {
		if _, ok := m[key]; !ok {
			t.Errorf("response missing %q", key)
		}
	}
	if m["tenant"] != "curl" {
		t.Errorf("tenant = %v", m["tenant"])
	}

	// Identical resubmission hits the cache and reproduces the clock.
	_, m2 := postJob(t, ts, `{"n":64,"procs":4,"mem_elems":4096,"tenant":"curl"}`)
	if m2["cache_hit"] != true {
		t.Error("second identical job should hit the plan cache")
	}
	if m2["sim_seconds"] != m["sim_seconds"] {
		t.Errorf("sim_seconds changed across identical jobs: %v vs %v", m["sim_seconds"], m2["sim_seconds"])
	}
}

// TestDiskLossIsAMachineFault: a disk loss is scheduled on the
// machine's coordinate, lose_disk as RANK@OP, and the random disk-loss
// knob is gone — a spec that still carries chaos_disk_loss is an unknown
// field, a 400, not a silently fault-free run.
func TestDiskLossIsAMachineFault(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, m := postJob(t, ts, `{"n":64,"procs":4,"mem_elems":4096,"parity":true,"chaos_disk_loss":0.5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("chaos_disk_loss: status %d, want 400 (%v)", resp.StatusCode, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "chaos_disk_loss") {
		t.Errorf("chaos_disk_loss: error %q does not name the field", msg)
	}
	resp, m = postJob(t, ts, `{"n":64,"procs":4,"mem_elems":4096,"parity":true,"lose_disk":"1@60"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("lose_disk 1@60 under parity: status %d, want 200 (%v)", resp.StatusCode, m)
	}
}

// TestChaosFieldsTakeOnlyProbabilities: a chaos or chaos_corrupt value
// outside [0, 1] is a 400 naming the field, not a run that injects
// nothing (a negative value) or fails every operation (above 1); NaN is
// no JSON number, so it cannot arrive. A probability runs.
func TestChaosFieldsTakeOnlyProbabilities(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, field := range []string{"chaos", "chaos_corrupt"} {
		for _, v := range []string{"-0.5", "1.5"} {
			resp, m := postJob(t, ts, `{"n":64,"procs":4,"mem_elems":4096,"`+field+`":`+v+`}`)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%v)", field, v, resp.StatusCode, m)
			}
			if msg, _ := m["error"].(string); !strings.HasPrefix(msg, field+": ") {
				t.Errorf("%s %s: error %q does not name the field", field, v, msg)
			}
		}
		resp, m := postJob(t, ts, `{"n":64,"procs":4,"mem_elems":4096,"`+field+`":0.01}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s 0.01: status %d, want 200 (%v)", field, resp.StatusCode, m)
		}
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := New(Config{Workers: 1, MemoryBudget: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{"n":`, http.StatusBadRequest},
		{"unknown field", `{"frobnicate":1}`, http.StatusBadRequest},
		{"bad machine", `{"machine":"cray"}`, http.StatusBadRequest},
		{"bad source", `{"source":"not hpf at all"}`, http.StatusBadRequest},
		{"oversize", `{"n":512,"procs":4,"mem_elems":4096}`, http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		resp, m := postJob(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.status, m)
		}
		if m["error"] == "" {
			t.Errorf("%s: no error text", tc.name)
		}
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("PUT /jobs: status %d, want 405", resp.StatusCode)
		}
	}
	// GET /jobs is the stream listing, not a submit surface.
	if resp, err := http.Get(ts.URL + "/jobs"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /jobs listing: status %d, want 200", resp.StatusCode)
		}
	}
}

func TestHTTPHealthAndMetricsAcrossDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving: %d", resp.StatusCode)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	httpResp, m := postJob(t, ts, `{"n":64}`)
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503 (%v)", httpResp.StatusCode, m)
	}
	if got := httpResp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After while draining = %q, want \"1\"", got)
	}
	if ms, ok := m["retry_after_ms"].(float64); !ok || ms != 1000 {
		t.Errorf("retry_after_ms while draining = %v, want 1000", m["retry_after_ms"])
	}

	// Metrics stay readable after the drain.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics Metrics
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.RejectedDraining == 0 {
		t.Error("draining rejection not counted")
	}
}

// TestHTTPDegradedMode: a dead journal disk — a write that fails, or an
// fsync that does — flips /healthz to 503 with a degraded flag, and job
// submissions get the long Retry-After hint.
func TestHTTPDegradedMode(t *testing.T) {
	// The first job costs the segment its create and snapshot write, then
	// three records; the next submit is the write (op 5) or the fsync
	// (the 5th) that fails.
	writeFault := faultFS(iosim.NewMemFS(), segName(1), map[int64]mp.FaultKind{5: mp.IOPermanent})
	syncFault := &scriptFS{FS: iosim.NewMemFS(), onSync: func(n int64) error {
		if n >= 5 {
			return errors.New("fsync: input/output error")
		}
		return nil
	}}
	for name, fs := range map[string]iosim.FS{"write fault": writeFault, "fsync fault": syncFault} {
		t.Run(name, func(t *testing.T) {
			testHTTPDegradedMode(t, fs)
		})
	}
}

func testHTTPDegradedMode(t *testing.T, journalFS iosim.FS) {
	s, err := Open(Config{Workers: 1, Journal: &JournalConfig{FS: journalFS, WorkFS: iosim.NewMemFS()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, m := postJob(t, ts, `{"n":32,"procs":4,"mem_elems":300}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy submit: %d (%v)", resp.StatusCode, m)
	}
	resp, m := postJob(t, ts, `{"n":32,"procs":4,"mem_elems":300,"tenant":"x"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on dead journal disk: %d, want 503 (%v)", resp.StatusCode, m)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Errorf("degraded Retry-After = %q, want \"5\"", got)
	}
	if ms, _ := m["retry_after_ms"].(float64); ms != 5000 {
		t.Errorf("degraded retry_after_ms = %v, want 5000", m["retry_after_ms"])
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while degraded: %d, want 503", hresp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["degraded"] != true {
		t.Errorf("healthz body = %v, want degraded:true", health)
	}
}

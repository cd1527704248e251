package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
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
	writeFault := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{Schedule: []iosim.ScheduledFault{
		{File: segName(1), Op: 5, Kind: iosim.KindPermanent},
	}})
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

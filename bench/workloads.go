package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ooc-hpf/passion/internal/serve"
)

// The benchmark owns its input programs: these are copies of
// testdata/*.hpf taken when the benchmark was defined, so an edit to the
// test corpus cannot silently move a benchmark number.
//
//go:embed programs/*.hpf
var programs embed.FS

func source(name string) string {
	b, err := programs.ReadFile("programs/" + name + ".hpf")
	if err != nil {
		panic(err)
	}
	return string(b)
}

// Program kinds; the kind selects the in-core oracle in verify.go.
const (
	kindGaxpy     = "gaxpy"
	kindTranspose = "transpose"
	kindEwise     = "scaledupdate"
	kindStencil   = "columnstencil"
)

// jobSpec is one distinct job of a served workload, before the tenant
// and the idempotency key are stamped on.
type jobSpec struct {
	kind string
	req  serve.Request
}

func (s jobSpec) label() string {
	return fmt.Sprintf("%s/n%d/p%d", s.kind, s.req.N, s.req.Procs)
}

func newSpec(kind string, n, procs, mem int, phantom bool) jobSpec {
	return jobSpec{kind: kind, req: serve.Request{
		Source: source(kind), N: n, Procs: procs, MemElems: mem, Phantom: phantom,
	}}
}

// workload is one named traffic shape. Every workload is a closed loop:
// a client sends its next job only after the previous reply, as every
// caller of the service in this repository does.
type workload struct {
	name string
	why  string
	// specs are the distinct jobs of a served workload; compile_sweep
	// has none and draws from the compile grid instead.
	specs            []jobSpec
	clients, workers int
	tenants          int
	overHTTP         bool
	journal          bool
	// warm is the number of warm-up jobs each set-up submits before
	// anything is timed; setups is how often a run repeats the set-up to
	// report its median.
	warm, setups int
}

// small is the operator's steady-state traffic: the three executable
// programs at a scale where a job runs about a millisecond.
func small() []jobSpec {
	return []jobSpec{
		newSpec(kindGaxpy, 64, 4, 4096, false),
		newSpec(kindTranspose, 64, 4, 4096, false),
		newSpec(kindEwise, 64, 4, 4096, false),
	}
}

var workloads = []*workload{
	{
		name:  "serve_warm",
		why:   "1 ms jobs over loopback HTTP with a warm plan cache: per-job fixed costs (HTTP/JSON, scheduler, stream decode, fingerprint, rank spawn) are the job",
		specs: small(), clients: 2, workers: 2, tenants: 4, overHTTP: true, warm: 96, setups: 9,
	},
	{
		name: "serve_journal",
		why:  "the serve_warm traffic with the write-ahead journal on and idempotency keys: durable writes, compaction and outcome retention, bypassed by serve_warm",
		// 288 warm-up jobs fill the 256 retained outcomes, so the timed
		// jobs see the journal's steady state and not its ramp.
		specs: small(), clients: 2, workers: 2, tenants: 4, overHTTP: true, journal: true, warm: 288, setups: 3,
	},
	{
		name:    "compile_sweep",
		why:     "parse, compile, lower, encode, decode, fingerprint over the paper's Table 1 range of N, P and memory: compile time where nothing can be executed; bypasses exec and serve",
		clients: 1, setups: 15,
	},
	{
		name:    "gaxpy_real",
		why:     "Figure 3 GAXPY at N=256 with real data: slab-loop dispatch, oocarray slab reads, iosim chunk I/O and flops dominate; collio does nothing",
		specs:   []jobSpec{newSpec(kindGaxpy, 256, 4, 16*256, false)},
		clients: 1, workers: 1, tenants: 1, warm: 4, setups: 7,
	},
	{
		name:    "transpose_real",
		why:     "two-phase transpose at N=1024, P=8 with real data: collio staging, mp AllToAll and many small file requests dominate; loop dispatch is one instruction",
		specs:   []jobSpec{newSpec(kindTranspose, 1024, 8, 16*1024, false)},
		clients: 1, workers: 1, tenants: 1, warm: 4, setups: 7,
	},
	{
		name:    "scale_phantom",
		why:     "GAXPY at P=64 with payloads elided: mp mailboxes, rank set-up, accounting and scheduler hand-offs; iosim and oocarray data movement is bypassed",
		specs:   []jobSpec{newSpec(kindGaxpy, 512, 64, 16*512, true)},
		clients: 1, workers: 1, tenants: 1, warm: 4, setups: 7,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shrunk is the workload with its jobs cut to a quarter of their extent
// and at most 16 processors, for the smoke test: the same programs and
// paths at a size that runs in milliseconds.
func (w *workload) shrunk() *workload {
	small := *w
	small.specs = nil
	for _, s := range w.specs {
		n := max(64, s.req.N/4)
		small.specs = append(small.specs,
			newSpec(s.kind, n, min(16, s.req.Procs), s.req.MemElems*n/s.req.N, s.req.Phantom))
	}
	return &small
}

// scaled shrinks a count for the smoke test, keeping at least min.
func scaled(n int, scale float64, min int) int {
	if s := int(float64(n) * scale); s > min {
		return s
	}
	return min
}

// instance is one set-up of a workload: a running server (or a compile
// grid), the seeded job order, and the job function the drivers call.
type instance struct {
	w   *workload
	srv *serve.Server
	ts  *httptest.Server
	hc  *http.Client
	jfs *countFS

	// order is the seeded job sequence; jobs cycle through it.
	order []jobRef
	next  atomic.Int64
	// first holds the first reply of each spec; every later reply of
	// that spec must equal it bitwise.
	first []atomic.Pointer[serve.Response]
	// keys records the idempotency keys in completion order, for the
	// replay check after a journaled run.
	keyMu sync.Mutex
	keys  []keyed

	grid []tuple // compile_sweep
}

type jobRef struct{ spec, tenant int }

type keyed struct {
	key  string
	resp *serve.Response
}

// clients is the client count of a run: never more than the machine has
// processors.
func (w *workload) clientCount() int {
	if n := runtime.NumCPU(); w.clients > n {
		return n
	}
	return w.clients
}

// setup builds everything a run needs before its first timed job:
// server, loopback listener, seeded job order, warm plan cache. Its
// duration is the benchmark's setup_s.
func (w *workload) setup(seed int64, scale float64) (*instance, error) {
	if scale < 1 {
		w = w.shrunk()
	}
	in := &instance{w: w}
	rng := rand.New(rand.NewSource(seed))
	if w.specs == nil {
		return in, in.setupSweep(rng, scale)
	}
	cfg := serve.Config{Workers: w.workers}
	if w.journal {
		in.jfs = newCountFS()
		cfg.Journal = &serve.JournalConfig{FS: in.jfs}
	}
	srv, err := serve.Open(cfg)
	if err != nil {
		return nil, err
	}
	in.srv = srv
	if w.overHTTP {
		in.listen()
	}
	for s := range w.specs {
		for t := 0; t < w.tenants; t++ {
			in.order = append(in.order, jobRef{s, t})
		}
	}
	rng.Shuffle(len(in.order), func(i, j int) { in.order[i], in.order[j] = in.order[j], in.order[i] })
	in.first = make([]atomic.Pointer[serve.Response], len(w.specs))
	// Warm-up runs on one client so the server state it leaves behind
	// (job ids, retained outcomes) is the same on every run of a seed; it
	// covers the whole order at least once, so every spec has a first
	// reply.
	for i := scaled(w.warm, scale, len(in.order)); i > 0; i-- {
		if err := in.job(nil); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return in, nil
}

// listen puts the server behind a loopback HTTP listener.
func (in *instance) listen() {
	in.ts = httptest.NewServer(in.srv.Handler())
	in.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: in.w.clientCount()}}
}

// close stops the listener and the server and waits for both.
func (in *instance) close() {
	if in.ts != nil {
		in.hc.CloseIdleConnections()
		in.ts.Close()
		in.ts = nil
	}
	if in.srv != nil {
		in.srv.Close()
		in.srv = nil
	}
}

// job submits the next job of the seeded order and checks its reply.
func (in *instance) job(rec *recorder) error {
	i := int(in.next.Add(1) - 1)
	if in.grid != nil {
		_, err := pipeline(rec, 0, in.grid[i%len(in.grid)])
		return err
	}
	ref := in.order[i%len(in.order)]
	req := in.w.specs[ref.spec].req
	req.Tenant = fmt.Sprintf("tenant-%d", ref.tenant)
	if in.w.journal {
		req.IdempotencyKey = fmt.Sprintf("key-%d", i)
	}
	id := ""
	if rec != nil {
		id = fmt.Sprintf("%s#%d", in.w.specs[ref.spec].label(), i)
	}
	root := rec.begin("job", id, 0)
	resp, _, err := in.submit(rec, root, id, req, in.w.overHTTP)
	rec.end(root)
	if err != nil {
		return err
	}
	if resp.Deduplicated {
		return fmt.Errorf("job %d: fresh key %q answered as a replay", i, req.IdempotencyKey)
	}
	if !in.first[ref.spec].CompareAndSwap(nil, resp) {
		if !sameOutcome(in.first[ref.spec].Load(), resp) {
			return fmt.Errorf("job %d (%s): reply differs from the first reply of its spec", i, in.w.specs[ref.spec].label())
		}
	}
	if in.w.journal {
		in.keyMu.Lock()
		in.keys = append(in.keys, keyed{req.IdempotencyKey, resp})
		in.keyMu.Unlock()
	}
	return nil
}

// sameOutcome reports whether two replies describe the same simulated
// run to the bit.
func sameOutcome(a, b *serve.Response) bool {
	return a.SimSeconds == b.SimSeconds && a.PlanFingerprint == b.PlanFingerprint &&
		a.Strategy == b.Strategy && reflect.DeepEqual(a.Stats, b.Stats)
}

// submit sends one request through the service's stable surface — POST
// /jobs when overHTTP, Server.Submit otherwise — and returns the reply
// and the size of its wire form (0 in process).
func (in *instance) submit(rec *recorder, parent int, job string, req serve.Request, overHTTP bool) (*serve.Response, int, error) {
	if !overHTTP {
		id := rec.begin("serve.submit", job, parent)
		resp, err := in.srv.Submit(context.Background(), req)
		rec.end(id)
		return resp, 0, err
	}
	id := rec.begin("serve.http_post", job, parent)
	defer rec.end(id)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hr, err := in.hc.Post(in.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		return nil, 0, err
	}
	if hr.StatusCode != http.StatusOK {
		return nil, len(raw), fmt.Errorf("POST /jobs: %s: %s", hr.Status, bytes.TrimSpace(raw))
	}
	resp := new(serve.Response)
	if err := json.Unmarshal(raw, resp); err != nil {
		return nil, len(raw), fmt.Errorf("decoding reply: %w", err)
	}
	return resp, len(raw), nil
}

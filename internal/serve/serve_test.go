package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/trace"
)

// directSnapshot runs req the way ooc-run would — no server, no queue,
// no cache — and returns the marshalled statistics snapshot.
func directSnapshot(t *testing.T, req Request) []byte {
	t.Helper()
	req = req.withDefaults()
	machineFor, err := cliutil.MachineFor(req.Machine)
	if err != nil {
		t.Fatal(err)
	}
	mach := machineFor(req.Procs)
	src := req.Source
	if src == "" {
		src = hpf.GaxpySource
	}
	res, err := compiler.CompileSource(src, compiler.Options{
		N: req.N, Procs: req.Procs, MemElems: req.MemElems,
		Machine: mach, Force: req.Force, Policy: compiler.PolicyWeighted,
		Runtime: oocarray.Options{Sieve: req.Sieve, Prefetch: req.Prefetch},
	})
	if err != nil {
		t.Fatal(err)
	}
	rf := req.runFlags()
	eopts, err := rf.Build(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	eopts.Fill = cliutil.FillsFor(res)
	out, err := exec.Run(res.Program, mach, eopts)
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, out.Stats.Snapshot())
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testMix is the concurrency workload: the three built-in kernels, the
// shift-pattern stencil, a chaos-disturbed run and a fail-stop recovery
// run, all small.
func testMix(t *testing.T) []Request {
	t.Helper()
	stencil, err := os.ReadFile("../../testdata/columnstencil.hpf")
	if err != nil {
		t.Fatal(err)
	}
	return []Request{
		{N: 64, Procs: 4, MemElems: 1 << 12},
		{Source: hpf.TransposeSource, N: 64, Procs: 4, MemElems: 1 << 12},
		{Source: hpf.EwiseSource, N: 64, Procs: 4, MemElems: 1 << 12},
		{Source: string(stencil), N: 64, Procs: 4, MemElems: 1 << 12},
		{N: 64, Procs: 4, MemElems: 1 << 12, Chaos: 0.02, ChaosSeed: 11},
		{N: 64, Procs: 4, MemElems: 1 << 12, Checkpoint: 2, Parity: true, KillRank: "1@60"},
	}
}

// TestServedMatchesDirect pushes concurrent mixed jobs — several copies
// of each kind, more jobs than workers — through the server and checks
// every response's statistics are bitwise identical to a direct
// exec.Run of the same request. Run under -race this also pins that
// sharing one cached plan across concurrent executions is safe.
func TestServedMatchesDirect(t *testing.T) {
	mix := testMix(t)
	want := make([][]byte, len(mix))
	for i, req := range mix {
		want[i] = directSnapshot(t, req)
	}

	s := New(Config{Workers: 4})
	defer s.Close()
	const copies = 2
	var wg sync.WaitGroup
	errs := make(chan error, copies*len(mix))
	for c := 0; c < copies; c++ {
		for i, req := range mix {
			wg.Add(1)
			go func(i int, req Request) {
				defer wg.Done()
				req.Tenant = []string{"alpha", "beta", "gamma"}[i%3]
				resp, err := s.Submit(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				got := mustJSON(t, resp.Stats)
				if string(got) != string(want[i]) {
					errs <- errors.New("served stats diverge from direct run for mix[" +
						resp.Program + "/" + resp.Strategy + "]")
				}
			}(i, req)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.MetricsSnapshot()
	if m.Completed != copies*int64(len(mix)) {
		t.Errorf("completed = %d, want %d", m.Completed, copies*len(mix))
	}
	// The chaos and kill-rank variants share the plain GAXPY's compile
	// inputs — fault injection is an execution option, not a compile
	// parameter — so the mix holds 4 distinct plans, not 6.
	if m.Cache.Misses != 4 {
		t.Errorf("cache misses = %d, want one per distinct compiled plan (4)", m.Cache.Misses)
	}
}

// TestServedKillRankReportsRecovery checks the resilient path surfaces
// its attempt counters through the response.
func TestServedKillRankReportsRecovery(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	resp, err := s.Submit(context.Background(), Request{
		N: 64, Procs: 4, MemElems: 1 << 12, Checkpoint: 2, Parity: true, KillRank: "1@60",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts < 2 || resp.Recoveries < 1 {
		t.Errorf("kill-rank job: attempts=%d recoveries=%d, want a survived loss", resp.Attempts, resp.Recoveries)
	}
}

// TestServedKillOutsideMachineFails checks a kill_rank naming a rank the
// job's machine does not have fails the job with an error naming the
// rank and P, instead of completing as if no kill had been asked for.
func TestServedKillOutsideMachineFails(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, kill := range []string{"9@60", "-1@5"} {
		resp, err := s.Submit(context.Background(), Request{
			N: 64, Procs: 4, MemElems: 1 << 12, Checkpoint: 2, Parity: true, KillRank: kill,
		})
		if err == nil {
			t.Errorf("kill_rank %s on 4 ranks: job completed (attempts %d)", kill, resp.Attempts)
			continue
		}
		rank, _, _ := strings.Cut(kill, "@")
		if msg := err.Error(); !strings.Contains(msg, "kill rank "+rank) || !strings.Contains(msg, "4 processors") {
			t.Errorf("kill_rank %s: error %q does not name the rank and P", kill, msg)
		}
	}
}

// TestTimeoutLeavesServerServing cancels a job mid-run via its deadline
// and checks the server stays healthy and the arena balanced: the next
// job completes and every buffer the cancelled run took was returned.
func TestTimeoutLeavesServerServing(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	// The counters are the process's: earlier tests' journals still hold
	// the storage of files they never removed.
	bufpool.ResetStats()

	s := New(Config{Workers: 2})
	defer s.Close()
	_, err := s.Submit(context.Background(), Request{N: 256, Procs: 4, MemElems: 1 << 12, TimeoutMS: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ms deadline on a multi-ms job: err = %v, want deadline exceeded", err)
	}

	resp, err := s.Submit(context.Background(), Request{N: 64, Procs: 4, MemElems: 1 << 12})
	if err != nil {
		t.Fatalf("server stopped serving after a cancelled job: %v", err)
	}
	if resp.SimSeconds <= 0 {
		t.Error("follow-up job produced no simulated time")
	}

	m := s.MetricsSnapshot()
	if m.Cancelled != 1 {
		t.Errorf("cancelled = %d, want 1", m.Cancelled)
	}
	if bp := m.Bufpool; bp.Gets != bp.Puts+bp.Drops {
		t.Errorf("arena leak after cancellation: gets %d != puts %d + drops %d", bp.Gets, bp.Puts, bp.Drops)
	}
	if m.ReservedBytes != 0 {
		t.Errorf("reserved bytes = %d after all jobs finished", m.ReservedBytes)
	}
}

// TestSubmitterGoneDiscardsQueuedJob cancels the submission context
// while the job is still queued; the job is discarded, not executed.
func TestSubmitterGoneDiscardsQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	// Occupy the only worker, then queue a job whose submitter gives up.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), Request{N: 256, Procs: 4, MemElems: 1 << 12}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the blocker reach the worker

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, Request{N: 64, Procs: 4, MemElems: 1 << 12}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	wg.Wait()
}

// TestOversizeRejected rejects a job that could never fit the budget.
func TestOversizeRejected(t *testing.T) {
	s := New(Config{Workers: 1, MemoryBudget: 1 << 20})
	defer s.Close()
	_, err := s.Submit(context.Background(), Request{N: 512, Procs: 4, MemElems: 1 << 12})
	if !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
	m := s.MetricsSnapshot()
	if m.RejectedOversize != 1 {
		t.Errorf("rejected_oversize = %d, want 1", m.RejectedOversize)
	}
}

// TestBudgetSerializesInflight gives the budget room for one job at a
// time; concurrent submissions must all complete (dispatch waits for
// the reservation instead of rejecting or deadlocking).
func TestBudgetSerializesInflight(t *testing.T) {
	req := Request{N: 64, Procs: 4, MemElems: 1 << 12}.withDefaults()
	machineFor, _ := cliutil.MachineFor("")
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: req.N, Procs: req.Procs, MemElems: req.MemElems,
		Machine: machineFor(req.Procs), Policy: compiler.PolicyWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	one := EstimateFootprint(res.Program, false, false)

	s := New(Config{Workers: 4, MemoryBudget: one + one/2})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if m := s.MetricsSnapshot(); m.ReservedBytes != 0 || m.Completed != 6 {
		t.Errorf("after run: reserved=%d completed=%d", m.ReservedBytes, m.Completed)
	}
}

// TestFairShareDispatch checks round-robin over tenants: with one
// tenant flooding the queue, another tenant's lone job is dispatched on
// the next pass, not after the flood.
func TestFairShareDispatch(t *testing.T) {
	s := &Server{
		cfg:     Config{}.withDefaults(),
		queues:  make(map[string][]*job),
		tenants: make(map[string]*tenantCounters),
	}
	s.dispatch = sync.NewCond(&s.mu)
	s.change = sync.NewCond(&s.mu)

	mk := func(tenant, id string) *job {
		return &job{id: id, req: Request{Tenant: tenant}, ctx: context.Background(), done: make(chan struct{})}
	}
	for _, j := range []*job{mk("a", "a1"), mk("a", "a2"), mk("a", "a3"), mk("b", "b1")} {
		if _, _, err := s.enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for i := 0; i < 4; i++ {
		order = append(order, s.next().id)
	}
	want := "a1 b1 a2 a3"
	got := order[0] + " " + order[1] + " " + order[2] + " " + order[3]
	if got != want {
		t.Errorf("dispatch order %q, want %q", got, want)
	}
}

// TestDrainFinishesQueuedJobs drains with work still queued: everything
// already accepted completes, later submissions are turned away.
func TestDrainFinishesQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	const jobs = 3
	var wg sync.WaitGroup
	done := make(chan *Response, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), Request{N: 64, Procs: 4, MemElems: 1 << 12})
			if err != nil {
				t.Error(err)
				return
			}
			done <- resp
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the jobs into the queue
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if len(done) != jobs {
		t.Errorf("%d/%d accepted jobs completed through the drain", len(done), jobs)
	}
	if _, err := s.Submit(context.Background(), Request{N: 64, Procs: 4}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit err = %v, want ErrDraining", err)
	}
}

// TestRuntimeSwitchesCompileIntoThePlan: sieve and prefetch are compile
// inputs. A served job with both set runs exactly as exec.Run of the plan
// compiled with them, and a request differing only in prefetch gets a
// cache entry and a fingerprint of its own.
func TestRuntimeSwitchesCompileIntoThePlan(t *testing.T) {
	plain := Request{N: 64, Procs: 4, MemElems: 1 << 12}
	both := plain
	both.Sieve, both.Prefetch = true, true
	want := directSnapshot(t, both)
	if string(want) == string(directSnapshot(t, plain)) {
		t.Fatal("sieve and prefetch did not change the direct run")
	}

	s := New(Config{Workers: 1})
	defer s.Close()
	resp, err := s.Submit(context.Background(), both)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, resp.Stats); string(got) != string(want) {
		t.Errorf("served sieve+prefetch stats diverge from the direct run:\n got %s\nwant %s", got, want)
	}
	sieveOnly := both
	sieveOnly.Prefetch = false
	other, err := s.Submit(context.Background(), sieveOnly)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit || other.PlanFingerprint == resp.PlanFingerprint {
		t.Errorf("requests differing only in prefetch share a plan: hit=%v, fingerprints %s and %s",
			other.CacheHit, other.PlanFingerprint, resp.PlanFingerprint)
	}
	if m := s.MetricsSnapshot(); m.Cache.Entries != 2 || m.Cache.Misses != 2 {
		t.Errorf("cache entries=%d misses=%d, want 2 and 2", m.Cache.Entries, m.Cache.Misses)
	}
}

// compileSmall compiles the built-in GAXPY at the tests' usual small
// scale.
func compileSmall(t *testing.T) *compiler.Result {
	t.Helper()
	req := Request{N: 64, Procs: 4, MemElems: 1 << 12}.withDefaults()
	machineFor, err := cliutil.MachineFor(req.Machine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: req.N, Procs: req.Procs, MemElems: req.MemElems, Machine: machineFor(req.Procs),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCacheEvictsLRU pins the eviction order and the single-flight
// compile of concurrent misses.
func TestCacheEvictsLRU(t *testing.T) {
	c := newPlanCache(2)
	small := compileSmall(t)
	compileCalls := 0
	compile := func() (*compiler.Result, string, error) {
		compileCalls++
		return small, "fp", nil
	}
	for _, key := range []string{"k1", "k2", "k1", "k3"} { // k3 evicts k2
		if _, _, err := c.getOrCompile(key, compile); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit, _ := c.getOrCompile("k1", compile); !hit {
		t.Error("k1 should have survived eviction")
	}
	if _, hit, _ := c.getOrCompile("k2", compile); hit {
		t.Error("k2 should have been evicted as least recently used")
	}
	if compileCalls != 4 {
		t.Errorf("compile ran %d times, want 4 (k1, k2, k3, re-k2)", compileCalls)
	}

	// Concurrent misses on one fresh key compile exactly once.
	c = newPlanCache(2)
	var wg sync.WaitGroup
	var n int64
	var mu sync.Mutex
	slow := func() (*compiler.Result, string, error) {
		mu.Lock()
		n++
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		return small, "fp", nil
	}
	var lowered sync.Map // each caller's entry's stream
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := c.getOrCompile("shared", slow)
			if err != nil {
				t.Error(err)
				return
			}
			lowered.Store(e.lowered, true)
		}()
	}
	wg.Wait()
	if n != 1 {
		t.Errorf("concurrent misses compiled %d times, want 1", n)
	}
	if st := c.stats(); st.Misses != 1 || st.Hits != 7 {
		t.Errorf("stats after single-flight: %+v, want 1 miss, 7 hits", st)
	}
	streams := 0
	lowered.Range(func(any, any) bool { streams++; return true })
	if streams != 1 {
		t.Errorf("eight callers on one key hold %d lowered streams, want 1", streams)
	}
}

// TestUnlowerablePlanNeverCached pins what happens when a compiled plan
// cannot be lowered to the opcode stream: the cache lowers a plan once,
// when its entry is filled, so the plan fails there with exec's typed
// lowering error — there is no other engine to fall back to — and takes no
// entry; the server keeps serving, the same request included. The
// compiler never emits such a plan, so the test offers one to the cache
// under the request's own key.
func TestUnlowerablePlanNeverCached(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := Request{N: 64, Procs: 4, MemElems: 1 << 12}.withDefaults()
	src, copts, err := req.compileInputs()
	if err != nil {
		t.Fatal(err)
	}
	good := compileSmall(t)
	bad := *good.Program
	bad.Body = []plan.Node{&plan.Loop{Var: "i", Count: plan.CountExpr{Lit: 1}, Body: []plan.Node{
		&plan.ZeroVec{Vec: "temp", RowsOfArray: bad.Arrays[0].Name},
		&plan.Axpy{Vec: "temp", A: "never_read", ACol: "i", B: "never_read", BCol: "i"},
	}}}
	_, _, err = s.cache.getOrCompile(cacheKey(src, copts), func() (*compiler.Result, string, error) {
		return &compiler.Result{Program: &bad, Analysis: good.Analysis}, "planted", nil
	})
	if err == nil || !strings.Contains(err.Error(), "exec: lower:") {
		t.Fatalf("filling an entry with an unlowerable plan: err = %v, want exec: lower: ...", err)
	}
	resp, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("server stopped serving after a lowering failure: %v", err)
	}
	if resp.CacheHit {
		t.Error("the request hit a cache entry the unlowerable plan should never have taken")
	}
	if m := s.MetricsSnapshot(); m.Failed != 0 || m.Completed != 1 || m.Cache.Entries != 1 {
		t.Errorf("after the refused plan and one job: failed=%d completed=%d entries=%d, want 0/1/1",
			m.Failed, m.Completed, m.Cache.Entries)
	}
}

// TestWorkersShareOneLoweredPlan holds two workers at pickup until each
// has a job on the same cache entry, then lets them run it at once: under
// -race it pins that one lowered stream is safe to share by concurrent
// runs, and that the second job lowers nothing.
func TestWorkersShareOneLoweredPlan(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	var mu sync.Mutex
	var picked []*exec.Lowered
	both := make(chan struct{})
	s.pickupGate = func(j *job) {
		mu.Lock()
		if picked = append(picked, j.lowered); len(picked) == 2 {
			close(both)
		}
		mu.Unlock()
		<-both
	}
	req := Request{N: 64, Procs: 4, MemElems: 1 << 12}
	var wg sync.WaitGroup
	stats := make([][]byte, 2)
	for i := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			stats[i] = mustJSON(t, resp.Stats)
		}()
	}
	wg.Wait()
	if len(picked) != 2 || picked[0] == nil || picked[0] != picked[1] {
		t.Fatalf("the two workers ran streams %v, want one shared stream", picked)
	}
	if string(stats[0]) != string(stats[1]) {
		t.Error("two runs of one lowered plan diverge")
	}
	if m := s.MetricsSnapshot(); m.Cache.Misses != 1 || m.Completed != 2 {
		t.Errorf("misses=%d completed=%d, want 1 and 2", m.Cache.Misses, m.Completed)
	}
}

// TestFingerprintVariesWithMachine checks the reported plan identity
// separates machines and memory, not just program shape.
func TestFingerprintVariesWithMachine(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	base := Request{N: 64, Procs: 4, MemElems: 1 << 12}
	r1, err := s.Submit(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	mod := base
	mod.Machine = "modern"
	r2, err := s.Submit(context.Background(), mod)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlanFingerprint == r2.PlanFingerprint {
		t.Error("delta and modern plans share a fingerprint")
	}
	if r2.CacheHit {
		t.Error("different machine must be a cache miss")
	}
}

// TestTraceRequested checks that a traced job's reply carries no trace
// field, that its trace is the job's stream, and that the stream's spans
// reconcile with the reply's stats.
func TestTraceRequested(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	resp, err := s.Submit(context.Background(), Request{N: 64, Procs: 4, MemElems: 1 << 12, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(mustJSON(t, resp)), `"trace"`) {
		t.Error("the reply carries a trace field")
	}
	st := s.stream(resp.JobID)
	if st == nil {
		t.Fatal("a traced job has no stream")
	}
	lines, done := st.snapshot()
	if !done {
		t.Fatal("the stream of a finished job is still live")
	}
	reconcileStream(t, append(bytes.Join(lines, []byte("\n")), '\n'), resp)
	var snap trace.Snapshot
	if err := json.Unmarshal(mustJSON(t, resp.Stats), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ElapsedSeconds != resp.SimSeconds {
		t.Error("sim_seconds diverges from the snapshot")
	}
}

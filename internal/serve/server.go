package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrOversize rejects a job whose estimated footprint exceeds the
	// whole memory budget — it could never be admitted.
	ErrOversize = errors.New("serve: job footprint exceeds the memory budget")
	// ErrBusy rejects a job because the queue is full.
	ErrBusy = errors.New("serve: queue full")
	// ErrDraining rejects a job because the server is shutting down.
	ErrDraining = errors.New("serve: draining")
	// ErrDegraded rejects new writes because the journal disk is faulty;
	// reads (metrics, health, idempotent outcome replay) are still
	// served.
	ErrDegraded = errors.New("serve: journal degraded, not accepting new jobs")
	// ErrCrashed fails callers of a server whose simulated crash point
	// fired (CrashSpec); from a client's view it is an ambiguous
	// dropped-connection failure.
	ErrCrashed = errors.New("serve: simulated crash")
)

// JournalConfig enables the write-ahead job journal: with it set, every
// job state transition is made durable before it takes effect and a
// restarted server (Open over the same FS) replays the work it owed.
type JournalConfig struct {
	// FS stores the journal segments. It must support enumeration
	// (MemFS and OSFS do). The journal is the server's, not a rank's:
	// no fault source numbers its file operations.
	FS iosim.FS
	// WorkFS stores the array files and exec checkpoints of resumable
	// jobs, namespaced per job attempt; nil shares FS.
	WorkFS iosim.FS
	// RotateBytes is the floor of the compaction trigger (default 1 MiB):
	// the journal rewrites its snapshot into a fresh segment once the
	// records appended since the last snapshot amount to that snapshot's
	// size, and never before RotateBytes of them.
	RotateBytes int64
	// MaxOutcomes bounds the retained idempotency outcomes (default 256).
	MaxOutcomes int
	// Retry overrides the transient-write retry policy (default
	// iosim.DefaultRetryPolicy).
	Retry *iosim.RetryPolicy
}

// CrashSpec is the service-level chaos harness: the server simulates a
// process death at the Nth occurrence of the named boundary. After the
// crash every caller fails as if the connection dropped, and a fresh
// Open over the same journal exercises the recovery path.
type CrashSpec struct {
	// Point is one of "submit" (after the submit record is durable,
	// before the job is runnable), "dispatch" (after the dispatch record,
	// before execution), "midrun" (at a committed checkpoint epoch of a
	// resumable job) or "complete" (after the completion record, before
	// the response reaches the submitter).
	Point string
	// N selects the occurrence, 1-based (0 means 1).
	N int64
}

// Crash points.
const (
	CrashSubmit   = "submit"
	CrashDispatch = "dispatch"
	CrashMidrun   = "midrun"
	CrashComplete = "complete"
)

// Config tunes a Server. Zero values take the defaults noted per field.
type Config struct {
	// Workers bounds concurrent executions (default 4).
	Workers int
	// QueueLimit bounds the total number of queued jobs (default 1024).
	QueueLimit int
	// CacheEntries bounds the compiled-plan LRU (default 128).
	CacheEntries int
	// MemoryBudget bounds the summed estimated footprint of inflight
	// jobs, in bytes (default 1 GiB). A job whose own estimate exceeds
	// the budget is rejected outright; otherwise dispatch waits until
	// its reservation fits.
	MemoryBudget int64
	// DefaultTimeout is the per-job execution deadline when the request
	// does not set one (default 60s).
	DefaultTimeout time.Duration
	// TenantWeights sets per-tenant fair-share weights (default 1 each).
	// A tenant with weight w receives w shares per dispatch round.
	TenantWeights map[string]int
	// Journal enables crash-safe durability; nil serves purely in
	// memory, exactly as before.
	Journal *JournalConfig
	// Crash injects a simulated process death (tests and chaos gates).
	Crash *CrashSpec
	// Logger receives the structured per-job log trail (submit,
	// dispatch, resume, complete, journal events), each record carrying
	// the job id / tenant / idempotency key / plan fingerprint / attempt
	// correlation fields. Nil discards.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof on the Handler.
	// Off by default: the profiling surface is an operator opt-in.
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 1024
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 1 << 30
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	return c
}

// job is one submission moving through the lifecycle (lifecycle.go).
type job struct {
	id          string
	req         Request
	res         *compiler.Result
	lowered     *exec.Lowered             // res.Program's stream, shared through the cache
	inputs      map[string]oocarray.Input // the plan's inputs, shared likewise
	mach        sim.Config
	fingerprint string
	cacheHit    bool
	footprint   int64
	ctx         context.Context

	// key is the client idempotency key; attempt is the execution
	// namespace on the durable work store (0 until first dispatch);
	// resume asks runJob to restart from the previous attempt's exec
	// checkpoints; replayed marks jobs re-admitted from the journal;
	// taken marks jobs a worker took off the queue (counted in inflight).
	key      string
	attempt  int
	resume   bool
	replayed bool
	taken    bool

	// submittedAt anchors the job-latency histogram; enqueuedAt the
	// queue-wait histogram (reset on every re-queue).
	submittedAt time.Time
	enqueuedAt  time.Time

	done chan struct{}
	resp *Response
	err  error
}

// phase is where the server is in its own life; it only moves forward.
type phase uint8

const (
	serving  phase = iota
	draining       // Drain: no new jobs, the queue runs out
	closed         // Close: queued jobs orphaned, workers exit
	crashed        // the simulated process died
)

// Server is the compile-and-run service. Create with New (or Open when
// journaling), submit with Submit (or over HTTP via Handler), and stop
// with Drain or Close.
type Server struct {
	cfg   Config
	cache *planCache

	journal *journal
	workFS  iosim.FS

	mu       sync.Mutex
	dispatch *sync.Cond // signaled on job arrival and shutdown
	change   *sync.Cond // signaled on completion, release and drain
	queues   map[string][]*job
	ring     []string // tenants in first-arrival order; empty queues are skipped
	wrr      map[string]int
	weights  map[string]int
	keys     map[string]*job // in-flight idempotency keys
	queued   int
	inflight int
	reserved int64
	phase    phase
	tenants  map[string]*tenantCounters

	// pickupGate, when set, runs after a worker reserves a job's
	// footprint and before it checks the submitter is still there — the
	// deterministic window for the reservation-leak regression test.
	pickupGate func(*job)
	// ranGate, when set, sees each successful run's result before it is
	// closed (tests read its arrays).
	ranGate func(*exec.Result)

	crashCtx    context.Context
	crashCancel context.CancelFunc
	crashN      atomic.Int64

	log *slog.Logger

	// Live span-stream registry (stream.go).
	streamMu    sync.Mutex
	streams     map[string]*jobStream
	streamOrder []string

	// Latency distributions for the Prometheus exposition (prom.go).
	histJobLatency *promHist
	histQueueWait  *promHist
	histCompile    *promHist
	histFootprint  *promHist

	wg     sync.WaitGroup
	jobSeq atomic.Int64
}

// New starts a server with cfg's worker pool running. It panics when
// Open would fail, which only a journal configuration can cause — use
// Open directly for journaled servers.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a server, replaying the write-ahead journal first when
// cfg.Journal is set: queued jobs are re-admitted in their original
// arrival order, jobs that were RUNNING at crash time resume from their
// exec checkpoints (or rerun from scratch when their spec is not
// resumable), and retained idempotency outcomes answer retried submits.
func Open(cfg Config) (*Server, error) {
	s, err := open(cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// open builds the server and replays its journal; start runs the
// workers. Tests set hooks in between.
func open(cfg Config) (*Server, error) {
	s := &Server{
		cfg:            cfg.withDefaults(),
		queues:         make(map[string][]*job),
		tenants:        make(map[string]*tenantCounters),
		keys:           make(map[string]*job),
		weights:        make(map[string]int),
		histJobLatency: newPromHist(latencyBuckets),
		histQueueWait:  newPromHist(latencyBuckets),
		histCompile:    newPromHist(compileBuckets),
		histFootprint:  newPromHist(footprintBuckets),
	}
	s.log = s.cfg.Logger
	if s.log == nil {
		s.log = slog.New(discard{})
	}
	for t, w := range s.cfg.TenantWeights {
		if w > 0 {
			s.weights[t] = w
		}
	}
	s.cache = newPlanCache(s.cfg.CacheEntries)
	s.dispatch = sync.NewCond(&s.mu)
	s.change = sync.NewCond(&s.mu)
	s.crashCtx, s.crashCancel = context.WithCancel(context.Background())
	if jc := s.cfg.Journal; jc != nil {
		if jc.FS == nil {
			return nil, errors.New("serve: JournalConfig.FS is required")
		}
		retry := iosim.DefaultRetryPolicy()
		if jc.Retry != nil {
			retry = *jc.Retry
		}
		jn, err := openJournal(jc.FS, jc.RotateBytes, retry, jc.MaxOutcomes)
		if err != nil {
			return nil, err
		}
		s.journal = jn
		s.workFS = jc.WorkFS
		if s.workFS == nil {
			s.workFS = jc.FS
		}
		s.replay()
	}
	return s, nil
}

func (s *Server) start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// replay rebuilds the queues from the journal's live set, in original
// arrival order, before any worker starts. Jobs with a dispatch record
// (Attempt > 0) were RUNNING when the server died: when their spec is
// resumable and the recompiled plan's fingerprint still matches, they
// keep their attempt namespace and resume from its checkpoints;
// otherwise they rerun from scratch in a fresh namespace.
func (s *Server) replay() {
	for t, w := range s.journal.tenantWeights() {
		if _, ok := s.weights[t]; !ok && w > 0 {
			s.weights[t] = w
		}
	}
	s.jobSeq.Store(s.journal.jobNum())
	keep := make(map[string]bool)
	var replayed int64
	for _, jb := range s.journal.liveJobs() {
		j := &job{id: jb.ID, key: jb.Key, req: jb.Spec.withDefaults(), ctx: s.crashCtx,
			replayed: true, done: make(chan struct{})}
		err := s.build(j)
		s.transition(j, edgeReplay, nil)
		if err != nil {
			// The spec no longer compiles or fits the budget: fail it so
			// it stops replaying.
			s.finish(j, edgeFail, nil, err)
			continue
		}
		if jb.Attempt > 0 {
			j.attempt = jb.Attempt
			if j.req.resumable() && j.fingerprint == jb.Fingerprint {
				j.resume = true
				keep[workPrefix(j.id, j.attempt)] = true
			}
		}
		if j.key != "" {
			s.keys[j.key] = j
		}
		j.submittedAt = time.Now()
		s.queued++
		s.push(j)
		replayed++
	}
	s.journal.addReplayed(replayed)
	if replayed > 0 {
		s.log.Info("journal replay complete", "jobs", replayed)
	}
	// Dead attempt namespaces: anything shaped "<job>.a<n>/..." that no
	// live resumable job claims.
	s.sweep(func(name string) bool {
		i := strings.Index(name, "/")
		return i >= 0 && strings.Contains(name[:i], ".a") && !keep[name[:i+1]]
	})
}

// sweep removes the work-store files dead reports true for.
func (s *Server) sweep(dead func(name string) bool) {
	if nm, ok := s.workFS.(namer); ok {
		for _, name := range nm.Names() {
			if dead(name) {
				s.workFS.Remove(name)
			}
		}
	}
}

// sweepAttempts removes every work-store file of the job's attempt
// namespaces after its terminal transition.
func (s *Server) sweepAttempts(id string) {
	s.sweep(func(name string) bool { return strings.HasPrefix(name, id+".a") })
}

// Submit compiles, admits, queues and executes one job, blocking until
// it completes or ctx is cancelled. Rejections return ErrOversize,
// ErrBusy, ErrDraining or ErrDegraded without executing anything. A
// request carrying an idempotency key the server has already completed
// (or is still running) returns the original outcome with Deduplicated
// set instead of executing again.
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{req: req.withDefaults(), ctx: ctx, done: make(chan struct{})}
	if s.journal != nil {
		j.key = j.req.IdempotencyKey
	}
	if err := s.build(j); err != nil {
		s.finish(j, edgeReject, nil, err)
		return nil, err
	}
	j.id = fmt.Sprintf("job-%d", s.jobSeq.Add(1))
	j.submittedAt = time.Now()
	owner, dedup, err := s.enqueue(j)
	switch {
	case err != nil:
		return nil, err
	case dedup != nil:
		return dedup, nil
	case owner != nil:
		// Another in-flight job owns this idempotency key; ride along
		// on its outcome.
		select {
		case <-owner.done:
			if owner.err != nil {
				return nil, owner.err
			}
			cp := *owner.resp
			cp.Deduplicated = true
			return &cp, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	select {
	case <-j.done:
		return j.resp, j.err
	case <-ctx.Done():
		// The job stays queued; whoever dispatches it sees the dead
		// context and discards it. Wake budget waiters so a worker
		// parked on this job's behalf rechecks.
		s.mu.Lock()
		s.change.Broadcast()
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// build resolves j's machine, compiles its plan through the cache and
// sizes its admission reservation.
func (s *Server) build(j *job) error {
	req := j.req
	src, copts, err := req.compileInputs()
	if err != nil {
		return &compileError{err}
	}
	entry, hit, err := s.cache.getOrCompile(cacheKey(src, copts), func() (*compiler.Result, string, error) {
		start := time.Now()
		r, cerr := compiler.CompileSource(src, copts)
		if cerr != nil {
			return nil, "", &compileError{fmt.Errorf("serve: compile: %w", cerr)}
		}
		// Cache misses only: hits cost a map lookup, not a compile.
		s.histCompile.observe(time.Since(start).Seconds())
		return r, plan.Fingerprint(r.Program, fingerprintExtras(copts.Machine, req.MemElems)), nil
	})
	if err != nil {
		return err
	}
	footprint := EstimateFootprint(entry.res.Program, req.Phantom, req.Parity)
	if footprint > s.cfg.MemoryBudget {
		return fmt.Errorf("%w: need %d bytes, budget %d", ErrOversize, footprint, s.cfg.MemoryBudget)
	}
	j.res, j.lowered, j.inputs, j.mach = entry.res, entry.lowered, entry.inputs, copts.Machine
	j.fingerprint, j.cacheHit, j.footprint = entry.fingerprint, hit, footprint
	return nil
}

// enqueue admits the job into its tenant's FIFO, journaling the submit
// first so the job is durable before it is runnable. An idempotency key
// is answered before anything else: by the in-flight job that owns it
// (returned as owner) or by its retained outcome (returned as dedup).
// The key is checked and claimed under one lock, and a finished job
// gives its key up only once its outcome is retained, so no two
// submits of one key both run. A turned-away job is finished here.
func (s *Server) enqueue(j *job) (owner *job, dedup *Response, err error) {
	// A retained outcome (never empty) is looked up under s.mu but
	// decoded after it, so a large one does not hold up every other
	// submit, dispatch and finish.
	var stored json.RawMessage
	s.mu.Lock()
	if j.key != "" {
		if owner = s.keys[j.key]; owner == nil {
			stored, _ = s.journal.outcome(j.key)
		}
	}
	if owner == nil && stored == nil {
		switch {
		case s.phase == crashed:
			err = ErrCrashed
		case s.phase != serving:
			err = ErrDraining
		case s.journal != nil && s.journal.degraded():
			err = ErrDegraded
		case s.queued >= s.cfg.QueueLimit:
			err = fmt.Errorf("%w: %d jobs queued", ErrBusy, s.queued)
		}
	}
	admit := owner == nil && stored == nil && err == nil
	if admit {
		if j.key != "" {
			s.keys[j.key] = j
		}
		s.queued++ // provisional slot while the submit record is written
	}
	s.mu.Unlock()
	if stored != nil {
		dedup = &Response{}
		if err = json.Unmarshal(stored, dedup); err != nil {
			err = fmt.Errorf("serve: decode stored outcome: %w", err)
		}
		dedup.Deduplicated = true
	}
	switch {
	case err != nil:
		s.finish(j, edgeReject, nil, err)
		return nil, nil, err
	case !admit:
		s.transition(j, edgeDedup, nil)
		return owner, dedup, nil
	}

	aerr := s.transition(j, edgeSubmit, nil)
	s.mu.Lock()
	if aerr == nil && s.phase == serving {
		if w := j.req.TenantWeight; w > 0 {
			s.weights[j.req.Tenant] = w
		}
		s.push(j)
		s.mu.Unlock()
		return nil, nil, nil
	}
	// The record failed, or the server shut down (or crashed) between the
	// record and the queue. A close zeroed the slot; a drain did not.
	if s.phase < closed {
		s.queued--
	}
	if aerr != nil && s.phase == crashed {
		aerr = ErrCrashed
	}
	s.mu.Unlock()
	if aerr != nil {
		s.finish(j, edgeReject, nil, aerr)
	} else {
		s.finish(j, edgeOrphan, nil, ErrDraining) // admitted, never run
	}
	return nil, nil, j.err
}

// push appends an admitted job, whose queue slot is already counted, to
// its tenant's FIFO. Callers hold s.mu (or are replaying, alone).
func (s *Server) push(j *job) {
	t := j.req.Tenant
	if _, ok := s.queues[t]; !ok && !slices.Contains(s.ring, t) {
		s.ring = append(s.ring, t)
	}
	j.enqueuedAt = time.Now()
	s.queues[t] = append(s.queues[t], j)
	s.dispatch.Signal()
}

// tenant returns t's counters, creating them on first use. Callers hold
// s.mu.
func (s *Server) tenant(t string) *tenantCounters {
	tc := s.tenants[t]
	if tc == nil {
		tc = &tenantCounters{}
		s.tenants[t] = tc
	}
	return tc
}

// worker pulls jobs fair-share and ends each on the edge its run took.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := s.next(); j != nil; j = s.next() {
		if !j.enqueuedAt.IsZero() {
			s.histQueueWait.observe(time.Since(j.enqueuedAt).Seconds())
		}
		resp, err := s.run(j)
		e := edgeComplete
		if err != nil {
			e = classOf(err).end
		}
		s.finish(j, e, resp, err)
	}
}

// run reserves j's footprint against the budget, dispatches and executes
// it, and returns the footprint.
func (s *Server) run(j *job) (*Response, error) {
	if err := s.reserve(j); err != nil {
		return nil, err
	}
	defer s.release(j.footprint)
	s.histFootprint.observe(float64(j.footprint))
	if s.pickupGate != nil {
		s.pickupGate(j)
	}
	if err := j.ctx.Err(); err != nil {
		// The submitter vanished between the reservation and the pickup:
		// the deferred release returns the footprint, or those bytes
		// would stay charged against the budget for a job that never
		// runs.
		return nil, err
	}
	if s.journal != nil && !j.resume {
		j.attempt++
	}
	s.transition(j, edgeDispatch, nil)
	if s.is(crashed) {
		return nil, ErrCrashed
	}
	return s.runJob(j)
}

// next blocks until a job is available or the server closes (nil).
// Dispatch is smooth weighted round-robin over tenants with pending
// work, FIFO within a tenant: each tenant's current credit grows by its
// weight every round, the largest credit wins the slot and pays the
// round's total back, so a tenant with weight w receives w of every
// sum-of-weights dispatches and a tenant flooding the queue cannot
// starve the others.
func (s *Server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.phase >= closed {
			return nil
		}
		if s.queued > 0 {
			if s.wrr == nil {
				s.wrr = make(map[string]int)
			}
			total, best := 0, ""
			for _, t := range s.ring {
				if len(s.queues[t]) == 0 {
					continue
				}
				w := s.weightOf(t)
				s.wrr[t] += w
				total += w
				if best == "" || s.wrr[t] > s.wrr[best] {
					best = t
				}
			}
			if best != "" {
				s.wrr[best] -= total
				q := s.queues[best]
				j := q[0]
				q[0] = nil
				s.queues[best] = q[1:]
				s.queued--
				s.inflight++
				j.taken = true
				return j
			}
		}
		s.dispatch.Wait()
	}
}

// weightOf resolves a tenant's fair-share weight. Callers hold s.mu.
func (s *Server) weightOf(t string) int {
	if w := s.weights[t]; w > 0 {
		return w
	}
	return 1
}

// reserve blocks until the job's footprint fits under the budget, then
// charges it. A job whose submitter already gave up is discarded here
// instead of waiting for memory it will never use, and a close while it
// waits orphans it.
func (s *Server) reserve(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := j.ctx.Err(); err != nil {
			return err
		}
		if s.phase >= closed {
			return ErrDraining
		}
		if s.reserved+j.footprint <= s.cfg.MemoryBudget {
			s.reserved += j.footprint
			return nil
		}
		s.change.Wait()
	}
}

func (s *Server) release(footprint int64) {
	s.mu.Lock()
	s.reserved -= footprint
	s.change.Broadcast()
	s.mu.Unlock()
}

// finish ends j on edge e — a terminal edge, or the rejection of a
// submit never admitted — and hands the outcome to its submitter and to
// any submit riding on its key. On a crashed server every admitted job
// ends on the crash edge: a dead process writes nothing, which is
// exactly what lets the restarted server find the job again.
func (s *Server) finish(j *job, e edge, resp *Response, err error) {
	if e != edgeReject && s.is(crashed) {
		e, err = edgeCrash, ErrCrashed
	}
	j.resp = resp
	aerr := s.transition(j, e, err)
	switch {
	case s.is(crashed):
		// The outcome may be durable, but the process died before the
		// response went out: the submitter sees an ambiguous failure, and
		// a retried submit with the same key is answered from the
		// retained outcome.
		if e != edgeReject {
			j.resp, err = nil, ErrCrashed
		}
	case aerr == nil && j.attempt > 0 && recordOf(e, j) != "":
		s.sweepAttempts(j.id)
	}
	j.err = err
	s.mu.Lock()
	if j.taken {
		s.inflight--
	}
	if j.key != "" && s.keys[j.key] == j {
		delete(s.keys, j.key)
	}
	s.change.Broadcast()
	s.mu.Unlock()
	if e != edgeReject && !j.submittedAt.IsZero() {
		s.histJobLatency.observe(time.Since(j.submittedAt).Seconds())
	}
	close(j.done)
}

// crashPoint fires the configured simulated process death when point's
// Nth occurrence arrives: the journal stops persisting (the disk is fine;
// the process is gone), every queued and running job's caller fails, and
// the worker pool unwinds. The journal still holds everything a
// restarted server needs.
func (s *Server) crashPoint(point string) {
	c := s.cfg.Crash
	if c == nil || c.Point != point || s.crashN.Add(1) != max(c.N, 1) {
		return
	}
	s.log.Warn("simulated process crash", "point", c.Point, "n", max(c.N, 1))
	if s.journal != nil {
		s.journal.kill()
	}
	s.stop(crashed)
}

// stop moves the server on to phase p — closed or crashed — and ends
// every job still queued as an orphan.
func (s *Server) stop(p phase) {
	s.mu.Lock()
	if s.phase >= p {
		s.mu.Unlock()
		return
	}
	s.phase = p
	var orphans []*job
	for t, q := range s.queues {
		orphans = append(orphans, q...)
		s.queues[t] = nil
	}
	s.queued = 0
	s.dispatch.Broadcast()
	s.change.Broadcast()
	s.mu.Unlock()
	if p == crashed {
		s.crashCancel()
	}
	for _, j := range orphans {
		s.finish(j, edgeOrphan, nil, ErrDraining)
	}
}

// is reports whether the server has reached phase p.
func (s *Server) is(p phase) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phase >= p
}

// runJob executes one admitted job: the shared flags→options mapping,
// the canonical fills, and a per-job deadline. Resumable jobs on a
// journaled server run against a durable per-attempt namespace of the
// work store so a restart can pick up their exec checkpoints; everything
// else runs on a fresh in-memory store. Jobs with a kill schedule under
// checkpoint and parity survive the losses it schedules.
func (s *Server) runJob(j *job) (*Response, error) {
	ctx, cancel := context.WithTimeout(j.ctx, j.req.timeout(s.cfg.DefaultTimeout))
	defer cancel()
	if s.crashCtx != nil {
		stop := context.AfterFunc(s.crashCtx, cancel)
		defer stop()
	}

	rf := j.req.runFlags()
	durable := s.journal != nil && j.req.resumable()
	var base iosim.FS
	if durable {
		base = &prefixFS{base: s.workFS, prefix: workPrefix(j.id, j.attempt)}
	}
	resume := durable && j.resume
	eopts, err := rf.Build(base, resume)
	if err != nil {
		return nil, err
	}
	eopts.Inputs = j.inputs
	if durable {
		eopts.RestoreStats = resume
		if c := s.cfg.Crash; c != nil && c.Point == CrashMidrun {
			eopts.CkptHook = func(int) { s.crashPoint(CrashMidrun) }
		}
	}
	if j.req.Trace {
		tracer := trace.NewTracer(j.res.Program.Procs)
		eopts.Trace = tracer
		// The job's trace is its stream: subscribers follow GET
		// /jobs/{id}/trace while the job runs. CloseSink on exit writes
		// the closing line and finishes the stream on every path —
		// including failures, where followers still get a
		// well-terminated stream. A run that survives a rank loss
		// carries the stream onto each attempt's tracer (AdoptSink).
		st := s.openStream(j.id)
		tracer.SetSink(newStreamSink(st, j.res.Program.Procs))
		defer func() {
			if cerr := tracer.CloseSink(); cerr != nil {
				s.log.Warn("span stream close failed", "job", j.id, "error", cerr.Error())
			}
		}()
	}

	resp := &Response{
		JobID:           j.id,
		Tenant:          j.req.Tenant,
		Program:         j.res.Program.Name,
		Strategy:        j.res.Program.Strategy,
		PlanFingerprint: j.fingerprint,
		CacheHit:        j.cacheHit,
	}
	out, err := exec.RunLowered(ctx, j.lowered, j.mach, eopts)
	if resume && errors.Is(err, exec.ErrNoCheckpoint) {
		// Dispatched, but the crash landed before the first commit: there
		// is nothing to restore, so run from scratch in the same namespace.
		s.sweepAttempts(j.id)
		eopts.Resume, eopts.RestoreStats = false, false
		out, err = exec.RunLowered(ctx, j.lowered, j.mach, eopts)
	} else if resume && err == nil {
		resp.Resumed = true
		s.journal.addResumed(1)
	}
	if err != nil {
		return nil, err
	}
	resp.Attempts, resp.Recoveries = out.Attempts, len(out.Recoveries)
	if s.ranGate != nil {
		s.ranGate(out)
	}
	// The run's array files (and a durable namespace's checkpoints) are
	// dead weight once the stats are captured; closing the result is what
	// returns an in-memory store's file storage to the arena.
	defer func() {
		if cerr := out.Close(); cerr != nil {
			s.log.Warn("run cleanup failed", "job", j.id, "error", cerr.Error())
		}
	}()
	// The reply takes the run's statistics rather than a copy: nothing
	// writes them once RunLowered has returned, and Close leaves them be.
	resp.SimSeconds = out.Stats.ElapsedSeconds()
	resp.Stats = trace.Snapshot{ElapsedSeconds: resp.SimSeconds, Procs: out.Stats.Procs,
		TotalIO: out.Stats.TotalIO(), TotalComm: out.Stats.TotalComm()}
	return resp, nil
}

// Metrics is the server's observable state.
type Metrics struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	Inflight   int `json:"inflight"`

	// The job counters, each the sum of the per-tenant counter of the
	// same name in Tenants.
	tenantCounters

	ReservedBytes int64 `json:"reserved_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`

	// Degraded mirrors the journal's give-up flag; Journal carries the
	// durability counters when journaling is on.
	Degraded bool          `json:"degraded,omitempty"`
	Journal  *JournalStats `json:"journal,omitempty"`

	Cache   CacheStats                 `json:"cache"`
	Tenants map[string]*tenantCounters `json:"tenants"`

	Bufpool bufpool.Stats `json:"bufpool"`
}

// MetricsSnapshot captures the current metrics.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	m := Metrics{
		Workers:       s.cfg.Workers,
		QueueDepth:    s.queued,
		Inflight:      s.inflight,
		ReservedBytes: s.reserved,
		BudgetBytes:   s.cfg.MemoryBudget,
		Tenants:       make(map[string]*tenantCounters, len(s.tenants)),
	}
	for t, c := range s.tenants {
		cc := *c
		m.Tenants[t] = &cc
		m.tenantCounters.addAll(c)
	}
	s.mu.Unlock()
	m.Cache = s.cache.stats()
	m.Bufpool = bufpool.Snapshot()
	if s.journal != nil {
		js := s.journal.statsSnapshot()
		m.Journal = &js
		m.Degraded = js.Degraded
	}
	return m
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool { return s.is(draining) }

// Degraded reports whether the journal disk forced the server into
// read-only degraded mode.
func (s *Server) Degraded() bool { return s.journal != nil && s.journal.degraded() }

// Drain stops accepting new jobs, waits until the queue and the worker
// pool are empty (or ctx expires), then stops the workers. After Drain
// the server serves no more jobs; metrics stay readable.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.phase < draining {
		s.phase = draining
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.mu.Lock()
		for (s.queued > 0 || s.inflight > 0) && s.phase < closed {
			s.change.Wait()
		}
		s.mu.Unlock()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.Close()
	return err
}

// Close stops the worker pool immediately: still-queued jobs, and jobs a
// worker holds while they wait for memory, are orphaned with
// ErrDraining, and workers exit after their current job. On a journaled
// server an orphaned fresh job is cancelled in the journal (its
// submitter saw the rejection), while an orphaned replayed job — which
// has no submitter — stays live and replays on the next Open. Use Drain
// for a graceful stop. Close is idempotent and always waits for the
// workers to unwind.
func (s *Server) Close() {
	s.stop(closed)
	s.wg.Wait()
	s.cache.release()
	if s.journal != nil {
		s.journal.close()
	}
}

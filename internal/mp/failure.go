package mp

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Fail-stop fault tolerance for the message-passing machine.
//
// A rank can be scheduled to die between any two of its operations
// (messages or, via StepOp, I/O requests). Death is fail-stop: the rank
// performs no further work, its outgoing mailboxes close, and surviving
// ranks that block on it stall for the simulated detection timeout and
// resolve to ErrRankDead instead of hanging. The failed set they report
// is the machine's ground truth, the ranks that actually died, so every
// survivor reports the same set; the executor uses it to drive
// checkpoint+parity recovery.
//
// Everything here is off the hot path: a machine with no Options has a
// nil failState and the per-op hook is a single nil check.

// defaultStallTimeout bounds how long the machine may sit with at least
// one blocked mailbox operation and no mailbox progress at all before
// the deadlock watchdog fails the run. Generous: real drains take
// microseconds; only a plan that genuinely cannot make progress leaves
// the machine quiet this long.
const defaultStallTimeout = 30 * time.Second

// KillSpec schedules one injected fail-stop death: rank Rank stops
// immediately before executing its Op'th counted operation (messages
// sent or received, and disk chunk operations when the executor wires
// StepOp into the I/O layer). Op counts from zero and is per-rank. Rank
// must lie in [0, P) and Op must not be negative, or RunOpts rejects the
// run; an Op past the rank's operation count is legal and never fires.
type KillSpec struct {
	Rank int
	Op   int64
}

// Options configures fault injection and the deadlock watchdog for one
// run. The zero value is a plain run: no kills, watchdog at the default
// quiet period. Any kill or op counting turns on the failure layer,
// whose survivors detect a dead peer after sim.DetectionTimeout.
type Options struct {
	// Kill schedules injected rank deaths.
	Kill []KillSpec
	// StallTimeout overrides the deadlock watchdog's quiet period
	// (non-positive selects defaultStallTimeout).
	StallTimeout time.Duration
	// OpCounts, when non-nil, receives each rank's final operation count
	// (len must be >= Procs). Probe runs use it to learn the op-index
	// space a kill schedule can target.
	OpCounts []int64
}

// active reports whether the run needs a failState at all.
func (o Options) active() bool {
	return len(o.Kill) > 0 || o.OpCounts != nil
}

// validate rejects a kill schedule that names a rank the machine does
// not have or an operation before the first.
func (o Options) validate(procs int) error {
	for _, k := range o.Kill {
		if k.Rank < 0 || k.Rank >= procs {
			return fmt.Errorf("mp: kill rank %d is outside the machine's %d processors", k.Rank, procs)
		}
		if k.Op < 0 {
			return fmt.Errorf("mp: kill of rank %d at op %d: ops count from 0", k.Rank, k.Op)
		}
	}
	return nil
}

// ErrRankDead is the error a surviving rank aborts with when an
// operation blocked on a dead peer: the peer it observed dead, the tag
// it was blocked on, and the run's failed-rank set.
type ErrRankDead struct {
	Rank   int
	Tag    int
	Agreed []int
}

func (e *ErrRankDead) Error() string {
	return fmt.Sprintf("rank %d is dead (blocked on tag %d); survivors agreed on failed ranks %v", e.Rank, e.Tag, e.Agreed)
}

// RankKilledError is the error recorded for the killed rank itself.
type RankKilledError struct {
	Rank int
	Op   int64
}

func (e *RankKilledError) Error() string {
	return fmt.Sprintf("rank %d killed by fault injection at op %d", e.Rank, e.Op)
}

// RankFailure wraps a run's joined per-processor errors when ranks
// died, carrying the failed set so the executor can decide whether the
// failure is recoverable.
type RankFailure struct {
	Failed []int
	Err    error
}

func (e *RankFailure) Error() string {
	return fmt.Sprintf("%v (failed ranks %v)", e.Err, e.Failed)
}

func (e *RankFailure) Unwrap() error { return e.Err }

// Panic sentinels: control flow out of arbitrarily deep plan code is by
// panic, recovered and typed in RunOpts's per-goroutine handler, so
// kernels need no error plumbing for faults they cannot handle anyway.
type killSentinel struct {
	rank int
	op   int64
}

type deathPanic struct{ err *ErrRankDead }

type watchdogPanic struct{ err error }

// failState is the shared fault bookkeeping of one run. The dead map is
// monotone ground truth (only actually dead ranks enter it), standing in
// for the heartbeat fabric of a real machine: detection *cost* is
// simulated via the heartbeat timeout, detection *truth* is exact.
type failState struct {
	kills [][]int64 // per-rank scheduled kill ops, sorted

	deadCount atomic.Int32
	mu        sync.Mutex
	dead      map[int]float64 // rank -> simulated death time

	// down[r] closes when rank r will make no further mailbox progress:
	// it died, aborted, or exited. Blocked operations select on it.
	down     []chan struct{}
	downOnce []sync.Once
}

func newFailState(procs int, opts Options) *failState {
	f := &failState{
		kills:    make([][]int64, procs),
		dead:     make(map[int]float64),
		down:     make([]chan struct{}, procs),
		downOnce: make([]sync.Once, procs),
	}
	for i := range f.down {
		f.down[i] = make(chan struct{})
	}
	for _, k := range opts.Kill {
		f.kills[k.Rank] = append(f.kills[k.Rank], k.Op)
	}
	for _, s := range f.kills {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return f
}

func (f *failState) anyDead() bool { return f.deadCount.Load() > 0 }

func (f *failState) isDead(rank int) bool {
	f.mu.Lock()
	_, ok := f.dead[rank]
	f.mu.Unlock()
	return ok
}

func (f *failState) markDead(rank int, at float64) {
	f.mu.Lock()
	if _, ok := f.dead[rank]; !ok {
		f.dead[rank] = at
		f.deadCount.Add(1)
	}
	f.mu.Unlock()
	f.markDown(rank)
}

func (f *failState) markDown(rank int) {
	f.downOnce[rank].Do(func() { close(f.down[rank]) })
}

// deadRanks returns the current dead set, sorted.
func (f *failState) deadRanks() []int {
	f.mu.Lock()
	out := make([]int, 0, len(f.dead))
	for r := range f.dead {
		out = append(out, r)
	}
	f.mu.Unlock()
	sort.Ints(out)
	return out
}

// earliestDeath returns the earliest simulated death time and the rank
// it belongs to (lowest rank on ties, for determinism).
func (f *failState) earliestDeath() (float64, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	at, rank := math.MaxFloat64, -1
	for r, t := range f.dead {
		if t < at || (t == at && r < rank) {
			at, rank = t, r
		}
	}
	return at, rank
}

// ---------------------------------------------------------------------------
// Per-op kill hook

// step counts one operation and dies if the kill schedule says so. The
// disabled fast path is a single nil check, which is what keeps the
// steady-state allocation and wall-clock pins intact.
func (p *Proc) step() {
	f := p.m.fail
	if f == nil {
		return
	}
	if p.failed {
		// Already dead or aborting: deferred cleanup may still issue
		// I/O during the unwind, and counting it would drift the op
		// space (or re-kill a rank that is already going down).
		return
	}
	op := p.ops
	p.ops++
	if len(p.killAt) > 0 && op == p.killAt[0] {
		p.killAt = p.killAt[1:]
		p.failed = true
		f.markDead(p.rank, p.clock.Seconds())
		panic(killSentinel{rank: p.rank, op: op})
	}
}

// StepOp advances this processor's fail-stop operation counter by one —
// the executor wires it into the I/O layer so kills can land between
// disk operations, not only between messages. A no-op on plain runs.
func (p *Proc) StepOp() { p.step() }

// Aborted reports whether this processor died or aborted on a failure;
// cleanup code running during the unwind uses it to skip collective
// operations that can no longer complete.
func (p *Proc) Aborted() bool { return p.failed }

// ---------------------------------------------------------------------------
// Detection and abort

// abortDead is the failure-detection path of an operation blocked on
// rank peer that will never make progress. It wakes this rank's own
// dependents, charges the simulated heartbeat-detection stall and the
// agreement instant, and panics with the typed error. RunOpts fills in
// the failed set once every rank has stopped. Only called with at least
// one dead rank.
func (p *Proc) abortDead(peer, tag int) {
	f := p.m.fail
	p.failed = true
	// Dependents blocked on this rank cascade into the same abort.
	f.markDown(p.rank)

	deadAt, deadRank := f.earliestDeath()
	rep := peer
	if !f.isDead(peer) {
		// Blocked on an aborting (not dead) rank: report the root cause.
		rep = deadRank
	}
	before := p.clock.Seconds()
	if target := deadAt + sim.DetectionTimeout; target > before {
		p.clock.SyncTo(target)
	}
	wait := p.clock.Seconds() - before
	if p.tr != nil {
		p.tr.Emit(trace.Span{Kind: trace.KindDetect, Start: before, Dur: wait, Peer: rep})
	}
	p.stats.Comm.Detections++
	p.stats.Comm.DetectSeconds += wait

	p.stats.Comm.Agreements++
	if p.tr != nil {
		p.tr.Emit(trace.Span{Kind: trace.KindAgree, Start: p.clock.Seconds(), N: int64(f.deadCount.Load())})
	}
	panic(deathPanic{err: &ErrRankDead{Rank: rep, Tag: tag}})
}

// deadPeer handles a receive on a closed, drained mailbox or a
// down-channel wakeup with no data available: the peer will never
// supply the blocked operation. With a death recorded this is the abort
// path; otherwise a peer exited early, a plan bug.
func (p *Proc) deadPeer(src, tag int) {
	if f := p.m.fail; f != nil && f.anyDead() {
		p.abortDead(src, tag)
	}
	panic(fmt.Sprintf("mp: rank %d terminated before sending the message rank %d expected (tag %d)", src, p.rank, tag))
}

// ---------------------------------------------------------------------------
// Deadlock watchdog

// watchdog fails the run when at least one rank sits blocked on a
// mailbox operation and no mailbox progress happens at all for the
// quiet period. It replaces the old send-stall panic: instead of one
// rank panicking with its own symptom, every blocked rank wakes, reports
// its blocked operation (rank, peer, tag, depth), and the run fails with
// the joined diagnostic.
type watchdog struct {
	timeout time.Duration
	abort   chan struct{}
	stop    chan struct{}
	once    sync.Once

	procs []*Proc // populated before any goroutine starts

	mu      sync.Mutex
	events  uint64
	blocked int
	fired   bool
}

func newWatchdog(timeout time.Duration) *watchdog {
	return &watchdog{
		timeout: timeout,
		abort:   make(chan struct{}),
		stop:    make(chan struct{}),
	}
}

func (w *watchdog) block(p *Proc, send bool, peer, tag, depth int) {
	w.mu.Lock()
	p.blk = blockInfo{active: true, send: send, peer: peer, tag: tag, depth: depth}
	w.blocked++
	w.events++
	w.mu.Unlock()
}

func (w *watchdog) unblock(p *Proc) {
	w.mu.Lock()
	if p.blk.active {
		p.blk.active = false
		w.blocked--
	}
	w.events++
	w.mu.Unlock()
}

func (w *watchdog) shutdown() {
	w.once.Do(func() { close(w.stop) })
}

// run is the monitor goroutine, alive for the duration of one RunOpts.
func (w *watchdog) run() {
	tick := w.timeout / 8
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var lastEvents uint64
	var quiet time.Duration
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		w.mu.Lock()
		if w.blocked > 0 && w.events == lastEvents {
			quiet += tick
			if quiet >= w.timeout && !w.fired {
				w.fired = true
				close(w.abort)
				w.mu.Unlock()
				return
			}
		} else {
			quiet = 0
			lastEvents = w.events
		}
		w.mu.Unlock()
	}
}

// watchdogFail raises this rank's share of the deadlock diagnostic.
func (p *Proc) watchdogFail() {
	p.failed = true
	b := p.blk
	op := "recv from"
	if b.send {
		op = "send to"
	}
	panic(watchdogPanic{err: fmt.Errorf("deadlock watchdog: rank %d blocked in %s rank %d (tag %d, depth %d) with no mailbox progress for %v",
		p.rank, op, b.peer, b.tag, b.depth, p.m.wd.timeout)})
}

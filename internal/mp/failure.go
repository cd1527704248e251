package mp

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Fail-stop fault tolerance for the message-passing machine.
//
// A rank can be scheduled to die between any two of its operations
// (messages or, via StepOp, I/O requests). Death is fail-stop: the rank
// performs no further work, its outgoing mailboxes close, and — when
// detection is enabled — surviving ranks that block on it resolve to
// ErrRankDead instead of hanging. Before aborting, survivors run a
// PREPARE/COMMIT agreement over the ordinary mailbox machinery so every
// survivor reports the same failed-rank set; the executor uses that set
// to drive checkpoint+parity recovery.
//
// Everything here is off the hot path: a machine with no Options has a
// nil failState and the per-op hook is a single nil check.

// Tags at or above agreeTagBase carry the failure-agreement protocol.
// They are above the collective range (internalTagBase), so a PREPARE
// arriving at a rank still running plan code is recognizable and stashed
// rather than confused with data.
const (
	agreeTagBase = 1 << 25
	tagPrepare   = agreeTagBase + 1
	tagCommit    = agreeTagBase + 2
)

// defaultStallTimeout bounds how long the machine may sit with at least
// one blocked mailbox operation and no mailbox progress at all before
// the deadlock watchdog fails the run. Generous: real drains take
// microseconds; only a plan that genuinely cannot make progress leaves
// the machine quiet this long.
const defaultStallTimeout = 30 * time.Second

// KillSpec schedules one injected fail-stop death: rank Rank stops
// immediately before executing its Op'th counted operation (messages
// sent or received, and disk chunk operations when the executor wires
// StepOp into the I/O layer). Op counts from zero and is per-rank.
type KillSpec struct {
	Rank int
	Op   int64
}

// Detector enables failure detection. A blocked operation on a dead
// peer then resolves to ErrRankDead after a simulated heartbeat-timeout
// stall instead of panicking, and survivors agree on the failed set.
// Zero fields select sim.DefaultHeartbeat / sim.DefaultHeartbeatMisses.
type Detector struct {
	// Heartbeat is the liveness-probe interval in simulated seconds.
	Heartbeat float64
	// Misses is the number of consecutive missed probes after which a
	// peer is declared dead.
	Misses int
}

// Timeout returns the detection latency in simulated seconds.
func (d Detector) Timeout() float64 {
	return sim.DetectionTimeout(d.Heartbeat, d.Misses)
}

// Options configures fault injection, detection and the deadlock
// watchdog for one run. The zero value is a plain run: no kills, no
// detection, watchdog at the default quiet period.
type Options struct {
	// Kill schedules injected rank deaths.
	Kill []KillSpec
	// Detect enables failure detection; nil leaves a blocked operation
	// on a dead peer to the closed-mailbox diagnostics (the run still
	// terminates, but without agreement or typed errors).
	Detect *Detector
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
	return len(o.Kill) > 0 || o.Detect != nil || o.OpCounts != nil
}

// ErrRankDead is the error a surviving rank aborts with when an
// operation blocked on a dead peer: the peer it observed dead, the tag
// it was blocked on, and the failed-rank set the survivors agreed on.
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
// died, carrying the union of the agreed failed sets so the executor
// can decide whether the failure is recoverable.
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
	kills   [][]int64 // per-rank scheduled kill ops, sorted
	timeout float64   // detection latency in simulated seconds; 0 = detection off

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
		if k.Rank >= 0 && k.Rank < procs {
			f.kills[k.Rank] = append(f.kills[k.Rank], k.Op)
		}
	}
	for _, s := range f.kills {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	if opts.Detect != nil {
		f.timeout = opts.Detect.Timeout()
	}
	return f
}

func (f *failState) detectOn() bool { return f.timeout > 0 }
func (f *failState) anyDead() bool  { return f.deadCount.Load() > 0 }

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
// dependents, charges the simulated heartbeat-detection stall, runs the
// failed-set agreement, and panics with the typed error. Only called
// with detection enabled and at least one dead rank.
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
	if target := deadAt + f.timeout; target > before {
		p.clock.SyncTo(target)
	}
	wait := p.clock.Seconds() - before
	if p.tr != nil {
		p.tr.Emit(trace.Span{Kind: trace.KindDetect, Start: before, Dur: wait, Peer: rep})
	}
	p.stats.Comm.Detections++
	p.stats.Comm.DetectSeconds += wait

	agreed := f.deadRanks()
	func() {
		// Agreement is best-effort: any internal failure falls back to
		// the local ground-truth snapshot rather than taking the run down
		// with an untyped panic.
		defer func() { _ = recover() }()
		agreed = p.agree()
	}()
	p.stats.Comm.Agreements++
	if p.tr != nil {
		p.tr.Emit(trace.Span{Kind: trace.KindAgree, Start: p.clock.Seconds(), N: int64(len(agreed))})
	}
	panic(deathPanic{err: &ErrRankDead{Rank: rep, Tag: tag, Agreed: agreed}})
}

// deadChannel handles a receive on a closed, drained mailbox: the sender
// exited.
// With detection on and a death recorded this is the abort path;
// otherwise it is the pre-existing plan-bug diagnostic.
func (p *Proc) deadChannel(src, tag int) {
	f := p.m.fail
	if f != nil && f.detectOn() && f.anyDead() {
		p.abortDead(src, tag)
	}
	panic(fmt.Sprintf("mp: rank %d terminated before sending the message rank %d expected (tag %d)", src, p.rank, tag))
}

// deadPeer handles a down-channel wakeup with no data available: the
// peer will never supply the blocked operation.
func (p *Proc) deadPeer(src, tag int) {
	f := p.m.fail
	if f.detectOn() {
		p.abortDead(src, tag)
	}
	panic(fmt.Sprintf("mp: rank %d terminated before sending the message rank %d expected (tag %d)", src, p.rank, tag))
}

// ---------------------------------------------------------------------------
// Agreement protocol

// agree converges the survivors on a common failed-rank set. The
// coordinator is the lowest rank that is neither dead nor observed
// exited; every other participant sends it PREPARE carrying its own
// dead-set snapshot and waits for COMMIT carrying the union. Aborting
// ranks run it on their abort path; ranks that complete normally while
// a failure is in flight participate from their exit epilogue so a
// coordinator always exists. Protocol messages are uncharged control
// traffic — their cost is part of the heartbeat-timeout model — and the
// whole exchange rides the ordinary per-pair mailboxes.
func (p *Proc) agree() []int {
	f := p.m.fail
	exited := make(map[int]bool) // observed closed mailboxes, not dead
	for round := 0; round < 2*p.Size()+4; round++ {
		coord := p.rank
		for r := 0; r < p.Size(); r++ {
			if r == p.rank {
				break
			}
			if f.isDead(r) || exited[r] {
				continue
			}
			coord = r
			break
		}
		if coord == p.rank {
			return p.coordinate(exited)
		}
		if !p.postCtl(coord, tagPrepare, encodeRanks(f.deadRanks())) {
			continue // coordinator died while posting; re-elect
		}
		committed, ok := p.awaitCommit(coord)
		if ok {
			return committed
		}
		if !f.isDead(coord) {
			exited[coord] = true
		}
	}
	return f.deadRanks() // fallback: local ground truth
}

// awaitCommit waits for the coordinator's COMMIT, returning false if the
// coordinator died or exited without committing.
func (p *Proc) awaitCommit(coord int) ([]int, bool) {
	for {
		payload, tag, ok := p.recvCtl(coord)
		if !ok {
			return nil, false
		}
		if tag == tagCommit {
			set := decodeRanks(payload)
			ReleaseBuf(payload)
			return set, true
		}
		// A stray PREPARE from a transient coordinator disagreement;
		// drop it and keep waiting.
		ReleaseBuf(payload)
	}
}

// coordinate runs the coordinator side: collect PREPARE from every rank
// that is not dead and not observed exited, union the suspicions with
// the local snapshot, and COMMIT the union back to every preparer.
func (p *Proc) coordinate(exited map[int]bool) []int {
	f := p.m.fail
	union := make(map[int]bool)
	for _, r := range f.deadRanks() {
		union[r] = true
	}
	var preparers []int
	for r := 0; r < p.Size(); r++ {
		if r == p.rank || union[r] || exited[r] || f.isDead(r) {
			continue
		}
		got := false
		for !got {
			payload, tag, ok := p.recvCtl(r)
			if !ok {
				if f.isDead(r) {
					union[r] = true
				}
				break // exited without preparing (completed pre-awareness)
			}
			if tag == tagPrepare {
				for _, d := range decodeRanks(payload) {
					union[d] = true
				}
				ReleaseBuf(payload)
				preparers = append(preparers, r)
				got = true
			} else {
				ReleaseBuf(payload) // stale commit; keep reading
			}
		}
	}
	set := make([]int, 0, len(union))
	for r := range union {
		set = append(set, r)
	}
	sort.Ints(set)
	for _, r := range preparers {
		p.postCtl(r, tagCommit, encodeRanks(set))
	}
	return set
}

// participate joins the agreement from the exit epilogue of a rank that
// finished its program while a failure was in flight, so aborting ranks
// always find a coordinator. Its own result and counters are untouched.
func (p *Proc) participate() {
	defer func() { _ = recover() }()
	p.agree()
}

// postCtl enqueues an uncharged control message, reporting false if the
// destination died (or the watchdog fired) before it could be delivered.
func (p *Proc) postCtl(dst, tag int, payload []float64) bool {
	f := p.m.fail
	b := p.m.box(p.rank, dst)
	msg := message{tag: int32(tag), count: noCount, data: payload, atTime: p.clock.Seconds()}
	down := f.down[dst]
	for {
		if f.isDead(dst) {
			ReleaseBuf(payload)
			return false
		}
		if b.put(msg, p.wake) {
			return true
		}
		select {
		case <-p.wake:
		case <-down:
			// Dead or aborting; the next pass checks which. An aborting
			// rank still drains control traffic, so from here on only a
			// freed slot or the watchdog ends the wait.
			down = nil
		case <-p.m.wd.abort:
			ReleaseBuf(payload)
			return false
		}
	}
}

// recvCtl blocks for the next control message from src, draining (and
// releasing) any stale application payloads in front of it. It reports
// false when src died or exited without sending one.
func (p *Proc) recvCtl(src int) ([]float64, int, bool) {
	f := p.m.fail
	for i := range p.pending {
		if p.pending[i].src == src {
			msg := p.pending[i].msg
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			return msg.data, int(msg.tag), true
		}
	}
	b := p.m.box(src, p.rank)
	down := f.down[src]
	wd := p.m.wd
	srcDead := false
	for {
		msg, ok, closed := b.take(p.wake)
		switch {
		case ok && msg.tag >= agreeTagBase:
			return msg.data, int(msg.tag), true
		case ok:
			ReleaseBuf(msg.data) // stale application payload
			continue
		case closed || srcDead:
			// srcDead: everything it managed to send has been drained.
			return nil, 0, false
		}
		wd.block(p, false, src, tagPrepare, b.depth())
		select {
		case <-p.wake:
		case <-down:
			srcDead = f.isDead(src)
			down = nil // aborting: it will still send or close; wait for that
		case <-wd.abort:
			wd.unblock(p)
			return nil, 0, false
		}
		wd.unblock(p)
	}
}

func encodeRanks(set []int) []float64 {
	buf := bufpool.GetF64(len(set))
	for i, r := range set {
		buf[i] = float64(r)
	}
	return buf
}

func decodeRanks(payload []float64) []int {
	out := make([]int, len(payload))
	for i, v := range payload {
		out[i] = int(v)
	}
	return out
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

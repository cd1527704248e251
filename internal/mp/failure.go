package mp

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Fail-stop fault tolerance for the message-passing machine.
//
// A rank can be scheduled to die between any two of its operations
// (messages or, via StepOp, I/O requests). Death is fail-stop: the rank
// performs no further work and exits like any returning rank (see
// Machine.exit), and surviving ranks that block on it stall for the
// simulated detection timeout and resolve to ErrRankDead instead of
// hanging. The failed set they report is the machine's ground truth, the
// ranks that actually died, so every survivor reports the same set; the
// executor uses it to drive checkpoint+parity recovery.
//
// A rank's logical disk can be scheduled to fail on the same coordinate.
// The machine holds no disks, so it only fires the loss, on the rank's
// own goroutine, and the executor's handler (OnDiskLoss) performs it.
//
// Everything here is off the hot path: a machine with no Options has a
// nil failState and the per-op hook is a single nil check.

// FaultKind is what a scheduled Fault does to its rank.
type FaultKind int

// Fault kinds.
const (
	// RankDeath fail-stops the rank (the zero value).
	RankDeath FaultKind = iota
	// LoseDisk loses the rank's logical disk. The rank runs on: the
	// handler it installed (Proc.OnDiskLoss) performs the loss.
	LoseDisk
)

// String names the kind as a schedule's messages do.
func (k FaultKind) String() string {
	switch k {
	case RankDeath:
		return "kill"
	case LoseDisk:
		return "disk loss"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault schedules one injected fault: rank Rank suffers Kind immediately
// before executing its Op'th counted operation (messages sent or
// received, and disk chunk operations when the executor wires StepOp
// into the I/O layer). Op counts from zero and is per-rank, so the
// machine orders every fault against every other operation of its rank.
// Rank must lie in [0, P), Op must not be negative and Kind must be a
// known kind, or RunOpts rejects the run; an Op past the rank's
// operation count is legal and never fires.
type Fault struct {
	Rank int
	Op   int64
	Kind FaultKind
}

// Options configures fault injection for one run. The zero value is a
// plain run. Any fault or op counting turns on the failure layer, whose
// survivors detect a dead peer after sim.DetectionTimeout.
type Options struct {
	// Faults schedules injected rank deaths and disk losses.
	Faults []Fault
	// OpCounts, when non-nil, receives each rank's final operation count
	// (len must be >= Procs). Probe runs use it to learn the op-index
	// space a fault schedule can target.
	OpCounts []int64
}

// active reports whether the run needs a failState at all.
func (o Options) active() bool {
	return len(o.Faults) > 0 || o.OpCounts != nil
}

// validate rejects a fault schedule that names a rank the machine does
// not have, an operation before the first or an unknown kind.
func (o Options) validate(procs int) error {
	for _, f := range o.Faults {
		if f.Kind != RankDeath && f.Kind != LoseDisk {
			return fmt.Errorf("mp: fault of rank %d at op %d has unknown kind %v", f.Rank, f.Op, f.Kind)
		}
		if f.Rank < 0 || f.Rank >= procs {
			return fmt.Errorf("mp: %v rank %d is outside the machine's %d processors", f.Kind, f.Rank, procs)
		}
		if f.Op < 0 {
			return fmt.Errorf("mp: %v of rank %d at op %d: ops count from 0", f.Kind, f.Rank, f.Op)
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

// DeadlockError is a rank's share of a deadlock: the mailbox operation it
// was parked in when every rank that had not returned was parked too, so
// that none could ever wake another.
type DeadlockError struct {
	Rank, Peer, Tag, Depth int
	Send                   bool
}

func (e *DeadlockError) Error() string {
	op := "recv from"
	if e.Send {
		op = "send to"
	}
	return fmt.Sprintf("deadlock: rank %d blocked in %s rank %d (tag %d, depth %d) with every live rank parked",
		e.Rank, op, e.Peer, e.Tag, e.Depth)
}

// PeerReturnedError is a plan bug: rank Rank waited on Peer after Peer
// had returned, for a message it never sent or, with Send, for room in a
// full mailbox it never drains.
type PeerReturnedError struct {
	Rank, Peer, Tag int
	Send            bool
}

func (e *PeerReturnedError) Error() string {
	if e.Send {
		return fmt.Sprintf("mp: rank %d returned with rank %d's mailbox to it full (tag %d): the plan posts messages the receiver never takes",
			e.Peer, e.Rank, e.Tag)
	}
	return fmt.Sprintf("mp: rank %d terminated before sending the message rank %d expected (tag %d)", e.Peer, e.Rank, e.Tag)
}

// Panic sentinels: control flow out of arbitrarily deep plan code is by
// panic, recovered and typed in RunOpts's per-goroutine handler, so
// kernels need no error plumbing for faults they cannot handle anyway.
type killSentinel struct {
	rank int
	op   int64
}

// abort carries a typed error out of a rank that cannot go on.
type abort struct{ err error }

// failState is the shared fault bookkeeping of one run. The dead map is
// monotone ground truth (only actually dead ranks enter it), standing in
// for the heartbeat fabric of a real machine: detection *cost* is
// simulated via the heartbeat timeout, detection *truth* is exact.
type failState struct {
	faults [][]Fault // per-rank scheduled faults, sorted by op

	deadCount atomic.Int32
	mu        sync.Mutex
	dead      map[int]float64 // rank -> simulated death time
}

func newFailState(procs int, opts Options) *failState {
	f := &failState{
		faults: make([][]Fault, procs),
		dead:   make(map[int]float64),
	}
	for _, ft := range opts.Faults {
		f.faults[ft.Rank] = append(f.faults[ft.Rank], ft)
	}
	for _, s := range f.faults {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Op < s[j].Op })
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
// Per-op fault hook

// step counts one operation and fires what the fault schedule holds for
// it: a disk loss runs the rank's loss handler and the rank goes on, a
// death stops the rank. The disabled fast path is a single nil check,
// which is what keeps the steady-state allocation and wall-clock pins
// intact.
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
	for len(p.faultAt) > 0 && p.faultAt[0].Op == op {
		ft := p.faultAt[0]
		p.faultAt = p.faultAt[1:]
		if ft.Kind == LoseDisk {
			if p.onLoss == nil {
				p.failed = true
				panic(abort{fmt.Errorf("mp: disk loss of rank %d at op %d, but the rank installed no handler (Proc.OnDiskLoss)", p.rank, op)})
			}
			p.onLoss(ft)
			continue
		}
		p.failed = true
		f.markDead(p.rank, p.clock.Seconds())
		panic(killSentinel{rank: p.rank, op: op})
	}
}

// StepOp advances this processor's fault operation counter by one — the
// executor wires it into the I/O layer so faults can land between disk
// operations, not only between messages. A no-op on plain runs.
func (p *Proc) StepOp() { p.step() }

// OnDiskLoss installs the handler a scheduled LoseDisk fault of this
// rank runs: on the rank's own goroutine, between two of its
// operations, with the fault that fired. The rank's owner (the executor)
// performs the loss in it; a loss on a rank with no handler fails the
// rank. The handler is dropped when the run ends.
func (p *Proc) OnDiskLoss(h func(Fault)) { p.onLoss = h }

// Aborted reports whether this processor died, or aborted on a failure
// or a deadlock; cleanup code running during the unwind uses it to skip collective
// operations that can no longer complete.
func (p *Proc) Aborted() bool { return p.failed }

// ---------------------------------------------------------------------------
// Detection and abort

// abortDead is the failure-detection path of an operation blocked on
// rank peer that will never make progress. It charges the simulated
// heartbeat-detection stall and the agreement instant, and panics with
// the typed error; the rank's exit then cascades the abort to its own
// dependents. RunOpts fills in the failed set once every rank has
// stopped. Only called with at least one dead rank.
func (p *Proc) abortDead(peer, tag int) {
	f := p.m.fail
	p.failed = true
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
	p.Record(&trace.Span{Kind: trace.KindDetect, Start: before, Dur: p.clock.Seconds() - before, Peer: rep})
	p.Record(&trace.Span{Kind: trace.KindAgree, Start: p.clock.Seconds(), N: int64(f.deadCount.Load())})
	panic(abort{&ErrRankDead{Rank: rep, Tag: tag}})
}

// deadPeer handles an operation on a peer that has returned: a receive
// on its closed, drained mailbox, or a send into its full one. With a
// death recorded this is the abort path; otherwise the peer finished
// early, a plan bug.
func (p *Proc) deadPeer(peer, tag int, send bool) {
	if f := p.m.fail; f != nil && f.anyDead() {
		p.abortDead(peer, tag)
	}
	panic(abort{&PeerReturnedError{Rank: p.rank, Peer: peer, Tag: tag, Send: send}})
}

// deadlock raises this rank's share of a declared deadlock: the
// operation on mailbox b it was parked in.
func (p *Proc) deadlock(b *mailbox, peer, tag int, send bool) {
	p.failed = true
	panic(abort{&DeadlockError{Rank: p.rank, Peer: peer, Tag: tag, Depth: b.depth(), Send: send}})
}

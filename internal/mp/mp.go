// Package mp implements the message-passing virtual machine the compiled
// node programs run on: P processors executing the same node function
// (SPMD), exchanging real data through typed point-to-point messages and
// collective operations, while a deterministic simulated clock charges
// every operation against the machine model in package sim.
//
// The collectives are built from point-to-point messages using binomial
// trees, so their simulated cost emerges from the message cost model the
// same way it would on a real distributed memory machine.
//
// What the machine costs on the host follows what it carries. A mailbox
// (mailbox.go) exists per ordered pair that communicates, holds a ring as
// deep as the pair ever ran ahead (up to mailboxCap) and outlives the run
// on a bounded free list; a message is a payload or, where a phantom run
// reduces elements nobody reads, only their count (buf.go, ReduceElided).
package mp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Tags at or above internalTagBase are reserved for collectives.
const internalTagBase = 1 << 24

// Machine is one SPMD execution context: P processors and their mailboxes.
//
// A mailbox exists per ordered pair that actually communicates, not per
// pair: boxes is a flat P×P table of slots (src*P+dst), each empty until
// either endpoint first touches it (see box). A binomial collective
// touches O(P log P) pairs, so the table's 8 bytes a slot are the only
// cost that grows with P².
type Machine struct {
	cfg   sim.Config
	boxes []atomic.Pointer[mailbox]
	rows  []sync.Mutex // rows[src] orders making and closing src's outgoing boxes
	fail  *failState   // nil on plain runs
	wd    *watchdog
}

// box returns the mailbox from src to dst, taking one (see newMailbox) on
// first use. The fast path is one atomic load. Sender and receiver may
// both arrive first; the row lock lets exactly one of them publish the
// mailbox, so both see the same one, per-pair FIFO order holds from the
// first message on, and a run holds one mailbox per pair used — a
// reproducible count. A slot never changes once published.
func (m *Machine) box(src, dst int) *mailbox {
	slot := &m.boxes[src*m.cfg.Procs+dst]
	if b := slot.Load(); b != nil {
		return b
	}
	m.rows[src].Lock()
	defer m.rows[src].Unlock()
	if b := slot.Load(); b != nil {
		return b
	}
	// A generous cap keeps the deterministic plans deadlock-free without a
	// progress engine; a full mailbox is ordinary backpressure, and one
	// that never drains is diagnosed by the deadlock watchdog rather than
	// blocking.
	b := newMailbox(mailboxCap(m.cfg.Procs))
	slot.Store(b)
	return b
}

// closeBoxes ends rank src's outgoing traffic: mailboxes in use are
// closed (already-buffered messages still drain first), and every slot
// nobody touched gets closedBox. Only the sender closes, and only here,
// after its last post.
func (m *Machine) closeBoxes(src int) {
	p := m.cfg.Procs
	m.rows[src].Lock()
	defer m.rows[src].Unlock()
	for i := src * p; i < (src+1)*p; i++ {
		if b := m.boxes[i].Load(); b != nil {
			b.close()
		} else {
			m.boxes[i].Store(closedBox)
		}
	}
}

// pendingMsg is an agreement-protocol message that arrived at a rank
// still running plan code, stashed until that rank joins the agreement.
type pendingMsg struct {
	src int
	msg message
}

// blockInfo is a rank's currently blocked mailbox operation, read by the
// deadlock watchdog for diagnostics (guarded by watchdog.mu).
type blockInfo struct {
	active    bool
	send      bool
	peer, tag int
	depth     int
}

// Proc is the per-processor handle passed to the node function. All
// methods must be called only from that processor's goroutine.
type Proc struct {
	m     *Machine
	rank  int
	clock sim.Clock
	stats *trace.ProcStats
	tr    *trace.RankTracer
	// wake is the channel this rank parks on while a mailbox is full or
	// empty (see mailbox).
	wake chan struct{}

	// a2aSeq numbers this processor's all-to-all calls; being collective,
	// the counts agree across ranks, which lets matching send/wait pairs
	// derive the same flow id without extra messages.
	a2aSeq int64
	// a2aOut is the result slice AllToAllOwned hands out and reuses.
	a2aOut [][]float64
	// flowOut/flowIn tag the next Send/Recv with a flow id.
	flowOut, flowIn uint64

	// Fail-stop bookkeeping (all zero on plain runs).
	ops     int64        // operations performed, for the kill schedule
	killAt  []int64      // remaining scheduled kill ops for this rank
	failed  bool         // died or aborted on a failure
	pending []pendingMsg // agreement messages stashed during plan code
	blk     blockInfo

	// panicBufs and panicMulti track arena buffers a collective holds
	// mid-flight; if the operation panics (peer death, plan bug), the
	// run's recovery handler releases them so error paths do not leak
	// arena memory. Cleared on the success path. sendBuf covers the
	// window in SendOwned where ownership has left the caller but the
	// message is not yet in a mailbox.
	panicBufs  [2][]float64
	panicMulti [][]float64
	sendBuf    []float64
}

// releasePanicBufs returns any buffers a panicking operation held.
func (p *Proc) releasePanicBufs() {
	for i, b := range p.panicBufs {
		ReleaseBuf(b)
		p.panicBufs[i] = nil
	}
	for _, b := range p.panicMulti {
		ReleaseBuf(b)
	}
	p.panicMulti = nil
	ReleaseBuf(p.sendBuf)
	p.sendBuf = nil
}

// NodeFunc is the SPMD node program.
type NodeFunc func(p *Proc) error

// Run executes the node function on cfg.Procs simulated processors and
// returns the collected statistics. It propagates the first error returned
// (or panic raised) by any node.
func Run(cfg sim.Config, node NodeFunc) (*trace.Stats, error) {
	return RunOpts(cfg, Options{}, node)
}

func newProc(m *Machine, rank int, stats *trace.Stats) *Proc {
	// The wake channel holds one token: a rank parks on one mailbox at a time.
	return &Proc{m: m, rank: rank, stats: &stats.Procs[rank], wake: make(chan struct{}, 1)}
}

// makeProcTable pre-builds the Proc table the failure layer and the
// watchdog need for cross-rank visibility. A plain run returns nil and
// each node goroutine allocates its own Proc, keeping the disabled path
// allocation-identical to a machine without the failure layer.
func makeProcTable(m *Machine, stats *trace.Stats, p int) []*Proc {
	if m.fail == nil && m.wd == nil {
		return nil
	}
	procs := make([]*Proc, p)
	for rank := range procs {
		procs[rank] = newProc(m, rank, stats)
		if m.fail != nil {
			procs[rank].killAt = m.fail.kills[rank]
		}
	}
	return procs
}

// RunOpts is Run with fault injection, failure detection and watchdog
// configuration (see Options). With a zero Options it behaves exactly
// like Run.
func RunOpts(cfg sim.Config, opts Options, node NodeFunc) (*trace.Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Procs
	m := &Machine{cfg: cfg, boxes: make([]atomic.Pointer[mailbox], p*p), rows: make([]sync.Mutex, p)}
	if opts.active() {
		m.fail = newFailState(p, opts)
	}
	if m.fail != nil || opts.StallTimeout > 0 {
		// The deadlock watchdog instruments every parked mailbox op, so
		// it is armed only when the failure layer is on (aborts must
		// never hang) or a stall timeout was asked for explicitly. Plain
		// runs keep the seed-fast uninstrumented park paths — the
		// wall-clock benchmark gates pin that at zero overhead.
		stall := opts.StallTimeout
		if stall <= 0 {
			stall = defaultStallTimeout
		}
		m.wd = newWatchdog(stall)
	}
	stats := trace.NewStats(p)
	errs := make([]error, p)
	// The pre-built Proc table exists only for the failure layer and the
	// watchdog (which inspect other ranks' state); a plain run allocates
	// each Proc inside its own goroutine, exactly like the machine
	// without a failure layer always has. Assigned exactly once so the
	// node goroutines capture the slice by value, not via a heap cell.
	procs := makeProcTable(m, stats, p)
	if m.wd != nil {
		m.wd.procs = procs
		go m.wd.run()
		defer m.wd.shutdown()
	}
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var proc *Proc
			if procs != nil {
				proc = procs[rank]
			} else {
				proc = newProc(m, rank, stats)
			}
			defer func() {
				if r := recover(); r != nil {
					switch v := r.(type) {
					case killSentinel:
						errs[rank] = &RankKilledError{Rank: v.rank, Op: v.op}
					case deathPanic:
						errs[rank] = v.err
					case watchdogPanic:
						errs[rank] = v.err
					default:
						errs[rank] = fmt.Errorf("mp: processor %d panicked: %v", rank, r)
					}
					proc.releasePanicBufs()
				}
				if m.fail != nil {
					// This rank sends nothing more; wake any dependents.
					m.fail.markDown(rank)
				}
				stats.Procs[rank].Seconds = proc.clock.Seconds()
				if opts.OpCounts != nil && rank < len(opts.OpCounts) {
					opts.OpCounts[rank] = proc.ops
				}
				// Peers blocked in Recv — now or later — observe the
				// termination instead of deadlocking.
				m.closeBoxes(rank)
			}()
			err := node(proc)
			if f := m.fail; f != nil && f.detectOn() && f.anyDead() {
				// A failure is in flight but this rank finished cleanly:
				// take part in the survivors' agreement so the aborting
				// ranks always find a coordinator.
				proc.participate()
			}
			errs[rank] = err
		}(rank)
	}
	wg.Wait()
	if m.wd != nil {
		m.wd.shutdown()
	}
	// Abort paths can strand payloads: messages a dead or aborted rank
	// never received still sit in the (now closed) mailboxes, and ranks
	// may hold stashed agreement traffic. Return all of it to the arena
	// so failed runs do not leak buffers — checked-mode tests assert the
	// Gets/Puts balance — and the mailboxes, emptied, to their free list.
	// Every slot is closed by now (each rank's exit ran closeBoxes), and
	// clean runs have empty mailboxes, so this costs one load per slot on
	// the ordinary path.
	recycleBoxes(m.boxes, p)
	for _, proc := range procs {
		for _, pm := range proc.pending {
			ReleaseBuf(pm.msg.data)
		}
		proc.pending = nil
	}
	var failures []error
	var failedSet map[int]bool // lazy: clean runs must not allocate it
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if failedSet == nil {
			failedSet = make(map[int]bool)
		}
		failures = append(failures, fmt.Errorf("processor %d: %w", rank, err))
		var killed *RankKilledError
		if errors.As(err, &killed) {
			failedSet[killed.Rank] = true
		}
		var dead *ErrRankDead
		if errors.As(err, &dead) {
			for _, r := range dead.Agreed {
				failedSet[r] = true
			}
		}
	}
	if len(failures) == 0 {
		return stats, nil
	}
	// Join all node errors: under fault injection several processors
	// typically fail at once, and reporting only the lowest rank would
	// hide the other diagnoses.
	joined := fmt.Errorf("mp: %w", errors.Join(failures...))
	if len(failedSet) > 0 {
		failed := make([]int, 0, len(failedSet))
		for r := range failedSet {
			failed = append(failed, r)
		}
		sort.Ints(failed)
		return stats, &RankFailure{Failed: failed, Err: joined}
	}
	return stats, joined
}

// Rank returns this processor's id in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of processors.
func (p *Proc) Size() int { return p.m.cfg.Procs }

// Config returns the machine configuration.
func (p *Proc) Config() sim.Config { return p.m.cfg }

// Clock returns this processor's simulated clock. The I/O layer charges
// disk time through it.
func (p *Proc) Clock() *sim.Clock { return &p.clock }

// Stats returns this processor's statistics record.
func (p *Proc) Stats() *trace.ProcStats { return p.stats }

// SetTracer attaches this processor's span sink; compute and
// communication spans are emitted into it against the simulated clock.
// A nil tracer disables recording at zero cost.
func (p *Proc) SetTracer(rt *trace.RankTracer) { p.tr = rt }

// Tracer returns the attached span sink (possibly nil).
func (p *Proc) Tracer() *trace.RankTracer { return p.tr }

// Compute charges the given number of floating point operations to this
// processor's clock.
func (p *Proc) Compute(flops int64) { p.ComputeN(flops, 1) }

// ComputeN charges n computations of flops operations each — the trips of
// a loop whose body costs the same every time. It is n Compute calls to
// the bit: the per-trip time is derived once, but the clock and
// ComputeSeconds still take n separate additions in the same order (one
// addition of n·dt would round differently), and an attached tracer still
// sees one compute span per trip. Untraced, either sum is a chain of
// dependent additions held in a register; through its pointer every
// addition would wait for the previous one's store as well.
func (p *Proc) ComputeN(flops int64, n int) {
	dt := p.m.cfg.ComputeTime(flops)
	if p.tr != nil {
		for i := 0; i < n; i++ {
			p.tr.Emit(trace.Span{Kind: trace.KindCompute, Start: p.clock.Seconds(), Dur: dt, N: flops})
			p.clock.Advance(dt)
		}
	} else {
		p.clock.AdvanceN(dt, n)
	}
	busy := p.stats.ComputeSeconds
	for i := 0; i < n; i++ {
		busy += dt
	}
	p.stats.ComputeSeconds = busy
	p.stats.Flops += int64(n) * flops
}

// mailboxCap sizes a mailbox from the machine size — the same depth for
// every pair, whenever in the run the mailbox is made — with a floor
// covering deep one-directional streams (a sender goroutine may race
// many plan iterations ahead of a lagging receiver). A full mailbox is
// ordinary backpressure — the sender parks until the receiver drains;
// only a machine-wide quiet period is diagnosed as a broken plan (see
// the deadlock watchdog in failure.go).
func mailboxCap(procs int) int {
	if c := 4 * procs; c > 64 {
		return c
	}
	return 64
}

// sendCharge validates the destination and applies a message's full
// simulated cost to the sender (blocking send model): clock, send span,
// communication statistics. Shared by Send and SendOwned so the two are
// indistinguishable to the simulation.
func (p *Proc) sendCharge(dst int, elems int) {
	if dst < 0 || dst >= p.Size() {
		panic(fmt.Sprintf("mp: Send to invalid rank %d", dst))
	}
	if dst == p.rank {
		panic("mp: Send to self is not supported; use local data")
	}
	p.step()
	bytes := int64(elems) * int64(p.m.cfg.ElemSize)
	dt := p.m.cfg.MsgTime(bytes)
	start := p.clock.Seconds()
	p.clock.Advance(dt)
	if p.tr != nil {
		p.tr.Emit(trace.Span{Kind: trace.KindSend, Start: start, Dur: dt, Peer: dst, Flow: p.flowOut, Bytes: bytes})
	}
	p.flowOut = 0
	p.stats.Comm.MessagesSent++
	p.stats.Comm.BytesSent += bytes
	p.stats.Comm.Seconds += dt
}

// post enqueues an owned buffer (or, with buf nil and count set, a
// count-only message) into the mailbox to dst. The fast path is
// non-blocking; a full mailbox applies backpressure (the sender parks
// until the receiver drains). A send that stays parked is watched by the
// deadlock watchdog, which fails the run with every blocked rank's
// diagnostics; with failure detection active, a destination that died or
// aborted resolves the send into the abort path instead.
func (p *Proc) post(dst, tag int, buf []float64, count int32) {
	if tag != int(int32(tag)) {
		ReleaseBuf(buf)
		panic(fmt.Sprintf("mp: rank %d: tag %d to rank %d does not fit a message", p.rank, tag, dst))
	}
	b := p.m.box(p.rank, dst)
	msg := message{tag: int32(tag), count: count, data: buf, atTime: p.clock.Seconds()}
	if !b.put(msg, p.wake) {
		p.postParked(b, msg, dst)
	}
}

// postParked is post's slow path: the mailbox was full and the refused
// put has registered this rank's wake channel.
func (p *Proc) postParked(b *mailbox, msg message, dst int) {
	f, wd := p.m.fail, p.m.wd
	var down chan struct{}
	if f != nil {
		down = f.down[dst]
	}
	// An uninstrumented run parks with a plain stall timer, exactly like
	// the machine without the failure layer always has. A send still
	// pending after the timeout means the receiver is not draining at
	// all — a plan with a missing receive.
	var stalled <-chan time.Time
	if wd == nil {
		stall := time.NewTimer(defaultStallTimeout)
		defer stall.Stop()
		stalled = stall.C
	}
	for parked := true; parked; parked = !b.put(msg, p.wake) {
		if wd == nil {
			select {
			case <-p.wake:
			case <-stalled:
				ReleaseBuf(msg.data)
				panic(watchdogPanic{err: fmt.Errorf("mp: rank %d overran its mailbox to rank %d and stalled %v (tag %d, depth %d): the plan posts messages the receiver never takes",
					p.rank, dst, defaultStallTimeout, msg.tag, b.depth())})
			}
			continue
		}
		wd.block(p, true, dst, int(msg.tag), b.depth())
		select {
		case <-p.wake:
			wd.unblock(p)
		case <-down:
			wd.unblock(p)
			// The destination is dead or aborting and will never drain the
			// mailbox; drop the payload and abort.
			ReleaseBuf(msg.data)
			p.deadPeer(dst, int(msg.tag))
		case <-wd.abort:
			wd.unblock(p)
			ReleaseBuf(msg.data)
			p.watchdogFail()
		}
	}
}

// Send delivers a copy of data to processor dst under the given tag. The
// sender's clock advances by the full message time (blocking send model).
// The copy lands in an arena buffer, so steady-state traffic recycles
// payload memory instead of allocating (see buf.go for the ownership
// protocol).
func (p *Proc) Send(dst, tag int, data []float64) {
	p.sendCharge(dst, len(data))
	buf := bufpool.GetF64(len(data))
	copy(buf, data)
	p.post(dst, tag, buf, noCount)
}

// SendOwned is Send without the copy: data must be an arena buffer the
// caller owns (from AcquireBuf or Recv), and ownership transfers to the
// message — the caller must not touch it afterwards. Simulated cost,
// spans and statistics are identical to Send.
func (p *Proc) SendOwned(dst, tag int, data []float64) {
	// Ownership has already transferred; a kill landing on the charge
	// must release the payload or the abort leaks it.
	p.sendBuf = data
	p.sendCharge(dst, len(data))
	p.sendBuf = nil
	p.post(dst, tag, data, noCount)
}

// Recv blocks until the next message from src arrives and returns its
// payload. The message's tag must match; a mismatch indicates a bug in the
// compiled plan and panics. The receiver's clock advances to the message
// arrival time if it was ahead of the receiver.
//
// The returned buffer is owned by the receiver: release it with
// ReleaseBuf once done, forward it with SendOwned, or adopt it (keep it
// and never release — always safe, merely forgoing reuse).
func (p *Proc) Recv(src, tag int) []float64 {
	msg := p.recv(src, tag)
	if msg.count != noCount {
		panic(fmt.Sprintf("mp: rank %d expected a payload from %d (tag %d), got a count of %d elements", p.rank, src, tag, msg.count))
	}
	return msg.data
}

// recv is Recv for either kind of message: the wait, its span and its
// statistics, leaving the payload-or-count check to the caller.
func (p *Proc) recv(src, tag int) message {
	if src < 0 || src >= p.Size() || src == p.rank {
		panic(fmt.Sprintf("mp: Recv from invalid rank %d", src))
	}
	p.step()
	msg := p.recvMsg(src, tag)
	if int(msg.tag) != tag {
		panic(fmt.Sprintf("mp: rank %d expected tag %d from %d, got %d", p.rank, tag, src, msg.tag))
	}
	before := p.clock.Seconds()
	p.clock.SyncTo(msg.atTime)
	wait := p.clock.Seconds() - before
	if p.tr != nil {
		p.tr.Emit(trace.Span{Kind: trace.KindWait, Start: before, Dur: wait, Peer: src, Flow: p.flowIn})
	}
	p.flowIn = 0
	p.stats.Comm.Seconds += wait
	return msg
}

// recvMsg blocks for the next application message from src. Buffered
// messages are always drained before a peer's death is acted on, so
// the point at which a run aborts is determined by the program, not by
// scheduling. Agreement-protocol messages that arrive early are stashed
// for the epilogue. An uninstrumented run (no failure layer, no
// watchdog) parks on its wake channel alone, the cheapest park there is;
// the wall-clock benchmark gates pin that path.
func (p *Proc) recvMsg(src, tag int) message {
	b := p.m.box(src, p.rank)
	f, wd := p.m.fail, p.m.wd
	peerDown := false
	for {
		msg, ok, closed := b.take(p.wake)
		switch {
		case ok && f != nil && msg.tag >= agreeTagBase:
			p.pending = append(p.pending, pendingMsg{src: src, msg: msg})
			continue
		case ok:
			return msg
		case closed:
			p.deadChannel(src, tag)
		case peerDown:
			// The sender died or aborted and what it still delivered has
			// been drained (drain preference).
			p.deadPeer(src, tag)
		case wd == nil:
			<-p.wake
			continue
		}
		var down chan struct{}
		if f != nil {
			down = f.down[src]
		}
		wd.block(p, false, src, tag, b.depth())
		select {
		case <-p.wake:
		case <-down:
			peerDown = true
		case <-wd.abort:
			wd.unblock(p)
			p.watchdogFail()
		}
		wd.unblock(p)
	}
}

// collective marks entry into a collective operation: one instant per
// CommStats.Collectives increment, which is what lets the reconciler
// recover the collective count from the spans.
func (p *Proc) collective(name string) {
	p.stats.Comm.Collectives++
	if p.tr != nil {
		p.tr.Emit(trace.Span{Kind: trace.KindCollective, Label: name, Start: p.clock.Seconds()})
	}
}

// relRank maps rank into the rotated space where root is 0.
func (p *Proc) relRank(root int) int {
	return (p.rank - root + p.Size()) % p.Size()
}

// absRank maps a rotated rank back to an absolute one.
func (p *Proc) absRank(rel, root int) int {
	return (rel + root) % p.Size()
}

// Bcast distributes root's data to every processor using a binomial tree
// and returns the received copy (on root, data itself; elsewhere an
// arena buffer the caller owns).
func (p *Proc) Bcast(root, tag int, data []float64) []float64 {
	p.collective("bcast")
	r := p.relRank(root)
	size := p.Size()
	// Find the highest mask so receive happens before sends.
	top := 1
	for top < size {
		top <<= 1
	}
	received := r == 0
	for mask := top; mask >= 1; mask >>= 1 {
		if r&mask != 0 && r&(mask-1) == 0 {
			// This processor receives at level mask.
			src := p.absRank(r-mask, root)
			data = p.Recv(src, internalTagBase+tag)
			p.panicBufs[0] = data
			received = true
		}
	}
	if !received {
		panic("mp: Bcast internal error: no receive scheduled")
	}
	// Now forward down the tree: send to r+mask for each mask below the
	// lowest set bit of r.
	low := top
	if r != 0 {
		low = r & (-r)
	}
	for mask := low >> 1; mask >= 1; mask >>= 1 {
		if r+mask < size {
			dst := p.absRank(r+mask, root)
			p.Send(dst, internalTagBase+tag, data)
		}
	}
	p.panicBufs[0] = nil
	return data
}

// AllReduce computes the elementwise sum across all processors and
// returns it on every processor (reduce to 0 followed by broadcast). The
// result is an arena buffer the caller owns. Non-roots pass their nil
// reduce result straight into Bcast, which never reads it there.
func (p *Proc) AllReduce(tag int, data []float64) []float64 {
	red := p.Reduce(0, tag, data)
	p.panicBufs[0] = red // root holds the sum across the broadcast's sends
	return p.Bcast(0, tag, red)
}

// Barrier blocks until every processor has entered it, and synchronizes
// the simulated clocks to the latest arrival (plus the collective's
// message costs).
func (p *Proc) Barrier(tag int) {
	ReleaseBuf(p.AllReduce(tag, nil))
}

// Gather collects each processor's data on root, in rank order. On root it
// returns a slice indexed by rank (each entry an arena buffer the caller
// owns); elsewhere nil. Contributions may have different lengths.
func (p *Proc) Gather(root, tag int, data []float64) [][]float64 {
	p.collective("gather")
	if p.rank != root {
		p.Send(root, internalTagBase+tag, data)
		return nil
	}
	out := make([][]float64, p.Size())
	p.panicMulti = out
	for r := 0; r < p.Size(); r++ {
		if r == root {
			buf := bufpool.GetF64(len(data))
			copy(buf, data)
			out[r] = buf
			continue
		}
		out[r] = p.Recv(r, internalTagBase+tag)
	}
	p.panicMulti = nil
	return out
}

// Scatter distributes parts (indexed by rank, significant on root only)
// from root and returns this processor's part, an arena buffer the
// caller owns.
func (p *Proc) Scatter(root, tag int, parts [][]float64) []float64 {
	p.collective("scatter")
	if p.rank == root {
		for r := 0; r < p.Size(); r++ {
			if r == root {
				continue
			}
			p.Send(r, internalTagBase+tag, parts[r])
		}
		buf := bufpool.GetF64(len(parts[root]))
		copy(buf, parts[root])
		return buf
	}
	return p.Recv(root, internalTagBase+tag)
}

// AllToAll sends parts[d] to processor d and returns the slice of parts
// received, indexed by source rank (each an arena buffer the caller
// owns, in a slice the caller owns). parts is only read: every part
// travels as an arena copy, parts[rank] included.
func (p *Proc) AllToAll(tag int, parts [][]float64) [][]float64 {
	out := make([][]float64, p.Size())
	p.exchange(tag, parts, out, false)
	return out
}

// AllToAllOwned is AllToAll without the copies: every non-nil parts[d]
// must be an arena buffer the caller owns, and ownership of all of them
// transfers — parts comes back all nil, and parts[rank] comes back as
// out[rank]. Should the exchange panic part-way (a killed rank, a dead
// peer), the parts not yet sent are still in parts and still the
// caller's to release. Simulated cost, spans and statistics are
// identical to AllToAll.
//
// The returned slice belongs to the Proc and is valid until its next
// AllToAllOwned; the buffers in it are the caller's, as after AllToAll.
func (p *Proc) AllToAllOwned(tag int, parts [][]float64) [][]float64 {
	if p.a2aOut == nil {
		p.a2aOut = make([][]float64, p.Size())
	}
	clear(p.a2aOut) // the last call's buffers went to its caller
	p.exchange(tag, parts, p.a2aOut, true)
	return p.a2aOut
}

// exchange is the schedule of both all-to-alls, filling out by source
// rank. Owned, it takes every buffer in parts and leaves nil behind,
// emptying each slot before its SendOwned: at any panic a buffer is then
// held in exactly one place — parts, the message (sendBuf), a mailbox or
// out (panicMulti). Not owned, each part is copied as it is sent.
func (p *Proc) exchange(tag int, parts, out [][]float64, owned bool) {
	size := p.Size()
	if len(parts) != size {
		panic(fmt.Sprintf("mp: an all-to-all wants %d parts, got %d", size, len(parts)))
	}
	p.collective("all-to-all")
	seq := p.a2aSeq
	p.a2aSeq++
	p.panicMulti = out
	take := func(d int) []float64 {
		part := parts[d]
		if owned {
			parts[d] = nil
			return part
		}
		buf := bufpool.GetF64(len(part))
		copy(buf, part)
		return buf
	}
	out[p.rank] = take(p.rank)
	// Rotated schedule: step i sends to rank+i and receives from rank-i,
	// keeping the pattern contention-free and deadlock-free.
	for i := 1; i < size; i++ {
		dst := (p.rank + i) % size
		src := (p.rank - i + size) % size
		sb := int64(len(parts[dst])) * int64(p.m.cfg.ElemSize)
		p.stats.Comm.ShuffleMessages++
		p.stats.Comm.ShuffleBytes += sb
		if p.tr != nil {
			p.tr.Emit(trace.Span{Kind: trace.KindShuffle, Start: p.clock.Seconds(), Peer: dst, Bytes: sb})
			// Both partners compute the same ids from (tag, seq, src, dst),
			// linking this send to the matching wait on dst in the export.
			p.flowOut = flowID(tag, seq, p.rank, dst)
			p.flowIn = flowID(tag, seq, src, p.rank)
		}
		p.SendOwned(dst, internalTagBase+tag, take(dst))
		out[src] = p.Recv(src, internalTagBase+tag)
	}
	p.panicMulti = nil
}

// flowID derives a display-only id for an AllToAll message from facts
// both endpoints know, so no ids travel with the data.
func flowID(tag int, seq int64, src, dst int) uint64 {
	h := uint64(tag)*0x9E3779B97F4A7C15 ^ uint64(seq)*0xBF58476D1CE4E5B9 ^ uint64(src)<<32 ^ uint64(dst)<<1
	return h | 1
}

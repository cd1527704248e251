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
// (mailbox.go) exists per ordered pair that communicates and holds a ring
// as deep as the pair ever ran ahead (up to mailboxCap); a finished
// machine — slot table, mailboxes and Proc handles — waits on a bounded
// free list for the next run at its processor count (machines). A
// message is a payload or, where a phantom run reduces elements nobody
// reads, only their count (buf.go, ReduceElided); a payload cycles
// through the ranks' own caches, not the shared arena (buf.go).
package mp

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

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
//
// A machine outlives its run: once every rank has returned, recycle
// resets it — mailboxes emptied in their slots, Proc handles zeroed —
// and the next run at the same processor count takes it from the free
// list (machines), so a served job makes no slot table, mailbox or Proc.
type Machine struct {
	cfg   sim.Config
	boxes []atomic.Pointer[mailbox]
	rows  []row
	procs []*Proc
	errs  []error    // each rank's result, by rank
	fail  *failState // nil on plain runs
	size  int        // retained bytes, while on the free list

	deadlocked atomic.Bool // set once, by declareDeadlock

	// ranks counts, in one word so that one atomic add moves it and one
	// read sees all of it, the ranks that have not returned (high half)
	// and, of those, the ones not parked on a mailbox (low half). Only
	// ranks post, so once the low half is zero and the high half is not,
	// no rank can ever wake another: the run is deadlocked. Every park
	// and wake writes it and every operation reads the fields above, so
	// it has a cache line to itself: sharing one, it more than doubled
	// the time scale_phantom's job spends in Proc.step, which reads fail.
	_     [64]byte
	ranks atomic.Int64
	_     [56]byte
}

// row is one rank's share of the slot table's bookkeeping.
type row struct {
	mu       sync.Mutex  // orders making and closing the rank's outgoing boxes
	returned atomic.Bool // the rank has returned: boxes to it never drain again
}

// oneRank is a rank that has not returned and is not parked, in ranks.
const oneRank = 1<<32 | 1

// stuck reports whether a value of ranks is a deadlock: ranks remain and
// every one of them is parked.
func stuck(ranks int64) bool { return int32(ranks) == 0 && ranks > 0 }

// park and unpark move a rank off and back onto the runnable count, under
// the lock of the mailbox it registers on; park reports a deadlock.
func (m *Machine) park() bool { return stuck(m.ranks.Add(-1)) }
func (m *Machine) unpark()    { m.ranks.Add(1) }

// box returns the mailbox from src to dst, making one on first use. The
// fast path is one atomic load. Sender and receiver may both arrive
// first; the row lock lets exactly one of them publish the mailbox, so
// both see the same one, per-pair FIFO order holds from the first
// message on, and a machine holds one mailbox per pair its runs used — a
// reproducible count. A slot never changes within a run once published.
func (m *Machine) box(src, dst int) *mailbox {
	slot := &m.boxes[src*m.cfg.Procs+dst]
	if b := slot.Load(); b != nil {
		return b
	}
	m.rows[src].mu.Lock()
	defer m.rows[src].mu.Unlock()
	if b := slot.Load(); b != nil {
		return b
	}
	// A generous cap keeps the deterministic plans deadlock-free without a
	// progress engine; a full mailbox is ordinary backpressure, and one
	// that never drains is a deadlock or a receiver that has returned,
	// both diagnosed rather than left blocking.
	b := &mailbox{limit: mailboxCap(m.cfg.Procs)}
	slot.Store(b)
	// Only src can be making it if dst has returned: either this load or
	// dst's scan in exit sees the other's store, so the box hangs up.
	if m.rows[dst].returned.Load() {
		b.hangUp()
	}
	return b
}

// exit is rank's return from the node function, by any path. Its
// outgoing mailboxes close (buffered messages still drain first) and
// every slot it never touched gets closedBox, so a rank receiving from it,
// now or later, observes the termination; its incoming mailboxes hang up,
// so a rank sending into a full one fails instead of parking. Then it
// leaves the rank count, declaring a deadlock if every rank left is
// parked.
func (m *Machine) exit(rank int) {
	p := m.cfg.Procs
	m.rows[rank].mu.Lock()
	for i := rank * p; i < (rank+1)*p; i++ {
		if b := m.boxes[i].Load(); b != nil {
			b.close()
		} else {
			m.boxes[i].Store(closedBox)
		}
	}
	m.rows[rank].mu.Unlock()
	m.rows[rank].returned.Store(true)
	for i := rank; i < p*p; i += p {
		if b := m.boxes[i].Load(); b != nil && b != closedBox {
			b.hangUp()
		}
	}
	if stuck(m.ranks.Add(-oneRank)) {
		m.declareDeadlock()
	}
}

// declareDeadlock is run by the rank whose park or return left every
// remaining rank parked. Nothing can wake them any more, so it sets the
// flag and wakes every rank still registered on a mailbox, and each
// panics with the operation it was parked in. It holds one unit of the
// runnable count while it scans, so that the ranks it wakes, returning,
// do not declare again; a rank that registers after the scan passed its
// mailbox leaves the count stuck when the unit is given back, and the
// scan repeats.
func (m *Machine) declareDeadlock() {
	m.deadlocked.Store(true)
	for again := true; again; again = m.park() {
		m.unpark()
		for i := range m.boxes {
			if b := m.boxes[i].Load(); b != nil && b != closedBox {
				b.interrupt()
			}
		}
	}
}

// Proc is the per-processor handle passed to the node function. All
// methods must be called only from that processor's goroutine.
type Proc struct {
	m     *Machine
	rank  int
	clock sim.Clock
	stats *trace.ProcStats
	tr    *trace.RankTracer
	// wake is the channel this rank waits on for its token while parked
	// on a full or empty mailbox (see mailbox).
	wake chan struct{}

	// a2aSeq numbers this processor's all-to-all calls; being collective,
	// the counts agree across ranks, which lets matching send/wait pairs
	// derive the same flow id without extra messages.
	a2aSeq int64
	// a2aOut is the result slice AllToAllOwned hands out and reuses.
	a2aOut [][]float64
	// flowOut/flowIn tag the next Send/Recv with a flow id.
	flowOut, flowIn uint64

	// Fail-stop bookkeeping (all zero on plain runs but for a deadlock's
	// failed).
	ops     int64       // operations performed, for the fault schedule
	faultAt []Fault     // remaining scheduled faults of this rank
	onLoss  func(Fault) // runs a LoseDisk fault (OnDiskLoss)
	failed  bool        // died, or aborted on a failure or a deadlock

	// panicBufs and panicMulti track arena buffers a collective holds
	// mid-flight; if the operation panics (peer death, plan bug), the
	// run's recovery handler releases them so error paths do not leak
	// arena memory. Cleared on the success path. sendBuf covers the
	// window in SendOwned where ownership has left the caller but the
	// message is not yet in a mailbox.
	panicBufs  [2][]float64
	panicMulti [][]float64
	sendBuf    []float64

	// cache is the rank's payload cache: every payload the rank acquires
	// or releases goes through it (see buf.go), and reset flushes it.
	cache bufpool.Cache
}

// Cache returns the rank's payload cache, which a payload the rank owns
// is released to and a buffer it will send owned is taken from (see
// buf.go).
func (p *Proc) Cache() *bufpool.Cache { return &p.cache }

// releasePanicBufs returns any buffers a panicking operation held.
func (p *Proc) releasePanicBufs() {
	for i, b := range p.panicBufs {
		p.cache.PutF64(b)
		p.panicBufs[i] = nil
	}
	for _, b := range p.panicMulti {
		p.cache.PutF64(b)
	}
	p.panicMulti = nil
	p.cache.PutF64(p.sendBuf)
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

// machines is the free list a finished run returns its machine to,
// oldest first. Its bound is in bytes, as bufpool's are: slot table,
// rows, Proc handles and the mailboxes' headers and rings (a P=64 GAXPY's
// machine is about 0.2 MiB, a P=512 one 4 MiB). A machine that does not
// fit pushes the oldest ones out; one larger than the bound is the GC's.
var machines struct {
	mu    sync.Mutex
	free  []*Machine
	bytes int
}

const machinesBytes = 16 << 20

// takeMachine returns a ready machine for cfg: the most recently returned
// one of its processor count, or a new one.
func takeMachine(cfg sim.Config) *Machine {
	p := cfg.Procs
	var m *Machine
	machines.mu.Lock()
	for i := len(machines.free) - 1; i >= 0; i-- {
		if machines.free[i].cfg.Procs == p {
			m = machines.free[i]
			machines.free = slices.Delete(machines.free, i, i+1)
			machines.bytes -= m.size
			break
		}
	}
	machines.mu.Unlock()
	if m == nil {
		m = &Machine{boxes: make([]atomic.Pointer[mailbox], p*p), rows: make([]row, p),
			procs: make([]*Proc, p), errs: make([]error, p)}
		for rank := range m.procs {
			// The wake channel holds one token: a rank parks on one
			// mailbox at a time.
			m.procs[rank] = &Proc{m: m, rank: rank, wake: make(chan struct{}, 1)}
		}
	}
	m.cfg = cfg
	m.ranks.Store(int64(p) * oneRank)
	return m
}

// recycle readies a machine every rank of which has returned for its next
// run and offers it to the free list. Abort paths can strand payloads:
// messages a dead or aborted rank never received still sit in the (now
// closed) mailboxes. They go back to the arena — checked-mode tests
// assert the Gets/Puts balance — and every mailbox stays in its slot,
// empty, open and unparked; the slots an exit filled with closedBox are
// empty again. Clean runs have empty mailboxes, so this costs one load
// per slot on the ordinary path.
func (m *Machine) recycle() {
	size := len(m.boxes)*int(unsafe.Sizeof(m.boxes[0])) + len(m.rows)*int(unsafe.Sizeof(row{}))
	for i := range m.boxes {
		switch b := m.boxes[i].Load(); b {
		case nil:
		case closedBox:
			m.boxes[i].Store(nil)
		default:
			b.reset()
			size += b.retained()
		}
	}
	for i := range m.rows {
		m.rows[i].returned.Store(false)
	}
	for _, p := range m.procs {
		p.reset()
		size += p.retained()
	}
	clear(m.errs)
	m.fail = nil
	m.deadlocked.Store(false)
	if size > machinesBytes {
		return
	}
	m.size = size
	machines.mu.Lock()
	machines.free = append(machines.free, m)
	machines.bytes += size
	for machines.bytes > machinesBytes {
		machines.bytes -= machines.free[0].size
		machines.free = slices.Delete(machines.free, 0, 1)
	}
	machines.mu.Unlock()
}

// start readies the Proc of rank for a run that records into stats.
func (m *Machine) start(rank int, stats *trace.Stats) *Proc {
	p := m.procs[rank]
	p.stats = &stats.Procs[rank]
	if m.fail != nil {
		p.faultAt = m.fail.faults[rank]
	}
	return p
}

// reset zeroes a Proc whose rank has returned, keeping its wake channel
// (drained) and its all-to-all result slice (emptied). Its payload cache
// goes back to the arena, so a machine on the free list holds no payload.
func (p *Proc) reset() {
	p.cache.Flush()
	select {
	case <-p.wake:
	default:
	}
	clear(p.a2aOut)
	*p = Proc{m: p.m, rank: p.rank, wake: p.wake, a2aOut: p.a2aOut}
}

// retained is what a Proc holds on the host: itself, its wake channel and
// its all-to-all result slice.
func (p *Proc) retained() int {
	const chanBytes = 96 // runtime.hchan
	return int(unsafe.Sizeof(*p)) + chanBytes + cap(p.a2aOut)*int(unsafe.Sizeof(p.a2aOut[0]))
}

// RunOpts is Run with fault injection (see Options). With a zero Options
// it behaves exactly like Run.
func RunOpts(cfg sim.Config, opts Options, node NodeFunc) (*trace.Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.validate(cfg.Procs); err != nil {
		return nil, err
	}
	p := cfg.Procs
	m := takeMachine(cfg)
	if opts.active() {
		m.fail = newFailState(p, opts)
	}
	// The statistics are the caller's, so they are made fresh per run.
	stats := trace.NewStats(p)
	errs := m.errs
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			proc := m.start(rank, stats)
			defer func() {
				if r := recover(); r != nil {
					switch v := r.(type) {
					case killSentinel:
						errs[rank] = &RankKilledError{Rank: v.rank, Op: v.op}
					case abort:
						errs[rank] = v.err
					default:
						errs[rank] = fmt.Errorf("mp: processor %d panicked: %v", rank, r)
					}
					proc.releasePanicBufs()
				}
				stats.Procs[rank].Seconds = proc.clock.Seconds()
				if opts.OpCounts != nil && rank < len(opts.OpCounts) {
					opts.OpCounts[rank] = proc.ops
				}
				m.exit(rank)
			}()
			errs[rank] = node(proc)
		}(rank)
	}
	wg.Wait()
	// Every rank has stopped, so the dead set is final: each killed rank
	// is in it, and it is what every survivor reports as agreed. The
	// machine goes back once the errors are read.
	defer m.recycle()
	var failed []int
	if m.fail != nil && m.fail.anyDead() {
		failed = m.fail.deadRanks()
	}
	var failures []error
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if dead, ok := err.(*ErrRankDead); ok {
			dead.Agreed = failed
		}
		failures = append(failures, fmt.Errorf("processor %d: %w", rank, err))
	}
	if len(failures) == 0 {
		return stats, nil
	}
	// Join all node errors: under fault injection several processors
	// typically fail at once, and reporting only the lowest rank would
	// hide the other diagnoses.
	joined := fmt.Errorf("mp: %w", errors.Join(failures...))
	if len(failed) > 0 {
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

// Record is the processor's one accounting call: it folds *s into this
// processor's statistics and, with a tracer attached, emits it.
func (p *Proc) Record(s *trace.Span) { p.stats.Record(p.tr, s) }

// Compute charges the given number of floating point operations to this
// processor's clock.
func (p *Proc) Compute(flops int64) { p.ComputeN(flops, 1) }

// ComputeN charges n computations of flops operations each — the trips of
// a loop whose body costs the same every time. It is n Compute calls to
// the bit: the per-trip time is derived once, but the clock and
// ComputeSeconds still take n separate additions in the same order (one
// addition of n·dt would round differently), and an attached tracer still
// sees one compute span per trip. Untraced, either sum is a chain of
// dependent additions held in a register (AdvanceN, FoldCompute); through
// its pointer every addition would wait for the previous one's store as
// well.
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
	p.stats.FoldCompute(flops, dt, n)
}

// mailboxCap sizes a mailbox from the machine size — the same depth for
// every pair, whenever in the run the mailbox is made — with a floor
// covering deep one-directional streams (a sender goroutine may race
// many plan iterations ahead of a lagging receiver). A full mailbox is
// ordinary backpressure — the sender parks until the receiver drains;
// only a receiver that has returned, or a machine whose every rank is
// parked, is diagnosed as a broken plan (see Machine.exit and
// declareDeadlock).
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
	p.Record(&trace.Span{Kind: trace.KindSend, Start: start, Dur: dt, Peer: dst, Flow: p.flowOut, Bytes: bytes})
	p.flowOut = 0
}

// post enqueues an owned buffer (or, with buf nil and count set, a
// count-only message) into the mailbox to dst. A full mailbox applies
// backpressure: the sender parks until the receiver drains. A receiver
// that has returned never will, and a send that would park on it fails
// at once (deadPeer); so does one parked in a deadlock (deadlock).
func (p *Proc) post(dst, tag int, buf []float64, count int32) {
	if tag != int(int32(tag)) {
		p.cache.PutF64(buf)
		panic(fmt.Sprintf("mp: rank %d: tag %d to rank %d does not fit a message", p.rank, tag, dst))
	}
	b := p.m.box(p.rank, dst)
	msg := message{tag: int32(tag), count: count, data: buf, atTime: p.clock.Seconds()}
	for {
		ok, gone := b.put(msg, p)
		switch {
		case ok:
			return
		case gone:
			p.cache.PutF64(msg.data)
			p.deadPeer(dst, tag, true)
		}
		<-p.wake
		if p.m.deadlocked.Load() {
			p.cache.PutF64(msg.data)
			p.deadlock(b, dst, tag, true)
		}
	}
}

// Send delivers a copy of data to processor dst under the given tag. The
// sender's clock advances by the full message time (blocking send model).
// The copy lands in a buffer from the rank's cache, so steady-state
// traffic recycles payload memory instead of allocating (see buf.go for
// the ownership protocol).
func (p *Proc) Send(dst, tag int, data []float64) {
	p.sendCharge(dst, len(data))
	buf := p.cache.GetF64(len(data))
	copy(buf, data)
	p.post(dst, tag, buf, noCount)
}

// SendOwned is Send without the copy: data must be an arena buffer the
// caller owns (from the rank's Cache, AcquireBuf or Recv), and ownership
// transfers to the message — the caller must not touch it afterwards.
// Simulated cost, spans and statistics are identical to Send.
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
// The returned buffer is owned by the receiver: release it to the rank's
// Cache once done, forward it with SendOwned, or adopt it (keep it and
// never release — always safe, merely forgoing reuse).
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
	p.Record(&trace.Span{Kind: trace.KindWait, Start: before, Dur: p.clock.Seconds() - before, Peer: src, Flow: p.flowIn})
	p.flowIn = 0
	return msg
}

// recvMsg blocks for the next message from src. Buffered messages are
// always drained before a peer's exit is acted on, so the point at which
// a run aborts is determined by the program, not by scheduling.
func (p *Proc) recvMsg(src, tag int) message {
	b := p.m.box(src, p.rank)
	for {
		msg, ok, closed := b.take(p)
		switch {
		case ok:
			return msg
		case closed:
			// The sender returned — finished, died or aborted — and what
			// it still delivered has been drained.
			p.deadPeer(src, tag, false)
		}
		<-p.wake
		if p.m.deadlocked.Load() {
			p.deadlock(b, src, tag, false)
		}
	}
}

// collective marks entry into a collective operation: one instant,
// which folds into CommStats.Collectives.
func (p *Proc) collective(name string) {
	p.Record(&trace.Span{Kind: trace.KindCollective, Label: name, Start: p.clock.Seconds()})
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
	p.cache.PutF64(p.AllReduce(tag, nil))
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
		buf := p.cache.GetF64(len(part))
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
		p.Record(&trace.Span{Kind: trace.KindShuffle, Start: p.clock.Seconds(), Peer: dst, Bytes: sb})
		if p.tr != nil {
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

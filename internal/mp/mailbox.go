package mp

import (
	"sync"
	"unsafe"
)

// A message carries its elements in data or — from a phantom-mode
// reduction, which nobody reads — only their number (see buf.go).
type message struct {
	tag    int32
	count  int32 // elements of a count-only message; noCount when data carries them
	data   []float64
	atTime float64 // sender clock when the message is fully injected
}

const noCount = -1

// mailbox is the FIFO queue of one ordered pair of ranks: one sender, one
// receiver. It holds what is in it — the ring starts at firstRing slots
// and doubles on overflow up to the machine's mailboxCap, where put
// refuses and the sender parks (backpressure) — and being closed is a
// flag, so a finished run's mailboxes stay in their machine's slots,
// reset, and its next run uses them again, ring and all.
//
// Parking is by registration: a put that finds the mailbox full, or a
// take that finds it empty, registers the calling rank under the lock,
// and the operation that changes the condition clears the registration
// and drops a token into the rank's cap-1 channel (Proc.wake). A rank
// counts as parked in its machine's rank count (Machine.ranks) exactly
// while its registration is in place: registering takes it off the
// runnable count, clearing puts it back, both under the lock, so the
// count never shows a rank parked that a token is already on its way to.
// Every registration is cleared exactly once and the rank waits for its
// token before it can register again, so tokens and registrations pair
// up one to one.
type mailbox struct {
	mu     sync.Mutex
	ring   []message
	head   int // index of the oldest message
	n      int // messages buffered
	limit  int // mailboxCap of the machine that holds it
	closed bool
	// recvGone records that the receiver has returned: a full mailbox
	// then never drains again, and a put that would park fails instead.
	recvGone bool
	// recvParked and sendParked are the receiver parked on empty and the
	// sender parked on full (nil when nobody is).
	recvParked, sendParked *Proc
}

const firstRing = 4

// park registers p in slot and takes it off its machine's runnable count;
// with p nil (a look without waiting) it does nothing. The caller holds
// b.mu; a true result means p was the machine's last runnable rank, and
// the caller declares the deadlock once it has let go of the lock.
func park(slot **Proc, p *Proc) bool {
	if p == nil {
		return false
	}
	*slot = p
	return p.m.park()
}

// unpark clears the registration in slot, under b.mu, and returns the
// rank it named (nil: nobody), which counts as runnable from here on; the
// caller hands it its token with wake once the lock is released, so the
// woken rank does not run straight into it.
func unpark(slot **Proc) *Proc {
	p := *slot
	if p != nil {
		*slot = nil
		p.m.unpark()
	}
	return p
}

// wake drops the token into an unparked rank's channel (nil: nobody). It
// never blocks: the rank takes its token before it can register again.
func wake(p *Proc) {
	if p != nil {
		p.wake <- struct{}{}
	}
}

// put appends msg and reports ok. Refused, the mailbox holds limit
// messages: with gone the receiver has returned and nothing will ever
// drain it, otherwise p is registered for a token when a slot frees. Only
// the pair's sender calls it, and never after close.
func (b *mailbox) put(msg message, p *Proc) (ok, gone bool) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		panic("mp: post into a closed mailbox")
	}
	if b.n == len(b.ring) && !b.grow() {
		if b.recvGone {
			b.mu.Unlock()
			return false, true
		}
		last := park(&b.sendParked, p)
		b.mu.Unlock()
		if last {
			p.m.declareDeadlock()
		}
		return false, false
	}
	i := b.head + b.n
	if i >= len(b.ring) {
		i -= len(b.ring)
	}
	b.ring[i] = msg
	b.n++
	w := unpark(&b.recvParked)
	b.mu.Unlock()
	wake(w)
	return true, false
}

// grow doubles a full ring, up to limit; false means it is at the cap.
func (b *mailbox) grow() bool {
	size := min(max(2*len(b.ring), firstRing), b.limit)
	if size <= len(b.ring) {
		return false
	}
	ring := make([]message, size)
	k := copy(ring, b.ring[b.head:])
	copy(ring[k:], b.ring[:b.head])
	b.ring, b.head = ring, 0
	return true
}

// take removes the oldest message. With ok false the mailbox is empty:
// closed tells that the sender has finished and nothing will ever come,
// otherwise p is registered for a token at the next put or close.
// Buffered messages drain before closed is reported. Only the pair's
// receiver calls it.
func (b *mailbox) take(p *Proc) (msg message, ok, closed bool) {
	b.mu.Lock()
	if b.n == 0 {
		closed = b.closed
		last := !closed && park(&b.recvParked, p)
		b.mu.Unlock()
		if last {
			p.m.declareDeadlock()
		}
		return message{}, false, closed
	}
	msg = b.ring[b.head]
	b.ring[b.head].data = nil // the payload now belongs to the receiver alone
	if b.head++; b.head == len(b.ring) {
		b.head = 0
	}
	b.n--
	w := unpark(&b.sendParked)
	b.mu.Unlock()
	wake(w)
	return msg, true, false
}

// close records that the pair's sender has returned: what is buffered
// still drains, then a receiver — parked now or arriving later —
// observes the termination.
func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	w := unpark(&b.recvParked)
	b.mu.Unlock()
	wake(w)
}

// hangUp records that the pair's receiver has returned: a sender parked
// on the full mailbox now, or about to park on it later, fails instead.
func (b *mailbox) hangUp() {
	b.mu.Lock()
	b.recvGone = true
	w := unpark(&b.sendParked)
	b.mu.Unlock()
	wake(w)
}

// interrupt wakes whoever is parked on either end, for a deadlock.
func (b *mailbox) interrupt() {
	b.mu.Lock()
	r, s := unpark(&b.recvParked), unpark(&b.sendParked)
	b.mu.Unlock()
	wake(r)
	wake(s)
}

// depth is the number of messages buffered, for diagnostics.
func (b *mailbox) depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// closedBox is what an exiting rank publishes into every outgoing slot
// nobody used: one shared, empty, closed mailbox, so a peer that parks in
// Recv on that pair afterwards observes the termination exactly as it
// would on a mailbox the sender had closed. It is never recycled.
var closedBox = &mailbox{closed: true}

// retained is what b holds on the host: its header and its ring.
func (b *mailbox) retained() int {
	return int(unsafe.Sizeof(*b)) + cap(b.ring)*int(unsafe.Sizeof(message{}))
}

// reset empties a mailbox of a run every rank of which has returned —
// releasing the payloads an abort stranded in it — and opens it again
// for the machine's next run.
func (b *mailbox) reset() {
	for msg, ok, _ := b.take(nil); ok; msg, ok, _ = b.take(nil) {
		ReleaseBuf(msg.data)
	}
	b.head, b.closed, b.recvGone, b.recvParked, b.sendParked = 0, false, false, nil, nil
}

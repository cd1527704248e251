package mp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
)

// recycle sends one mailbox through the end-of-run path.
func recycle(b *mailbox) {
	slots := make([]atomic.Pointer[mailbox], 1)
	slots[0].Store(b)
	recycleBoxes(slots, 1)
}

// checkFresh fails unless b is what a run may take from the free list:
// empty, open, nobody parked on it, no payload left in a slot and no ring
// beyond its cap.
func checkFresh(t *testing.T, b *mailbox) {
	t.Helper()
	if b.n != 0 || b.head != 0 || b.closed || b.recvWake != nil || b.sendWake != nil {
		t.Fatalf("recycled mailbox is not fresh: n=%d head=%d closed=%v recvWake=%v sendWake=%v",
			b.n, b.head, b.closed, b.recvWake != nil, b.sendWake != nil)
	}
	if len(b.ring) > b.limit {
		t.Fatalf("ring of %d slots exceeds the cap %d", len(b.ring), b.limit)
	}
	for i, m := range b.ring[:cap(b.ring)] {
		if m.data != nil {
			t.Fatalf("recycled mailbox still holds a payload in slot %d", i)
		}
	}
}

// FuzzMailbox drives put / take / close / recycle on one mailbox from a
// byte script, against a chan message of the same cap as the model: the
// two must agree on FIFO order and on every full, empty and closed
// answer, buffered messages must still drain after close, the ring must
// never exceed the cap, and a recycled mailbox must come back fresh with
// the payloads it stranded returned to the arena.
func FuzzMailbox(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 1, 1, 2, 1, 1, 1, 1})
	f.Add([]byte{63, 0, 4, 0, 4, 1, 3, 0, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{67, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		bufpool.SetChecked(true)
		defer bufpool.SetChecked(false)
		bufpool.ResetStats()
		limit := 1 + int(script[0])%70
		b := newMailbox(limit)
		model := make(chan message, limit)
		modelClosed := false
		next := int32(0)
		for _, op := range script[1:] {
			switch op % 5 {
			case 0, 4: // put, every other one with a payload
				if modelClosed {
					continue // a post after close is a sender bug; both forms panic
				}
				msg := message{tag: next, count: noCount}
				if op%5 == 4 {
					msg.data = AcquireBuf(1)
				}
				var want bool
				select {
				case model <- msg:
					want = true
				default:
				}
				if got := b.put(msg, nil); got != want {
					t.Fatalf("put %d at depth %d of %d: accepted %v, model %v", next, len(model), limit, got, want)
				}
				if want {
					next++
				} else {
					ReleaseBuf(msg.data)
				}
			case 1: // take
				var want message
				wantOK, wantClosed := false, false
				select {
				case m, open := <-model:
					want, wantOK, wantClosed = m, open, !open
				default:
				}
				got, ok, closed := b.take(nil)
				if ok != wantOK || closed != wantClosed || got.tag != want.tag {
					t.Fatalf("take: got (tag %d, ok %v, closed %v), model (tag %d, ok %v, closed %v)",
						got.tag, ok, closed, want.tag, wantOK, wantClosed)
				}
				ReleaseBuf(got.data)
			case 2: // close
				if !modelClosed {
					close(model)
					modelClosed = true
					b.close()
				}
			case 3: // the run ends: recycle, and the next run takes a mailbox
				recycle(b)
				b = newMailbox(limit)
				checkFresh(t, b)
				model, modelClosed = make(chan message, limit), false
			}
			if b.n != len(model) {
				t.Fatalf("depth %d, model %d", b.n, len(model))
			}
			if len(b.ring) > limit {
				t.Fatalf("ring of %d slots exceeds the cap %d", len(b.ring), limit)
			}
		}
		recycle(b)
		if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
			t.Errorf("mailbox leaked payloads: %+v", s)
		}
	})
}

// parked spins until one end of b has registered its wake channel.
func parked(b *mailbox, sender bool) {
	for {
		b.mu.Lock()
		w := b.recvWake
		if sender {
			w = b.sendWake
		}
		b.mu.Unlock()
		if w != nil {
			return
		}
	}
}

// TestReceiverParkedBeforeFirstPut: rank 1 is parked in Recv on an empty
// mailbox it made itself before rank 0 posts anything; every message must
// still arrive, in order.
func TestReceiverParkedBeforeFirstPut(t *testing.T) {
	const n = 200
	run(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			parked(p.m.box(0, 1), false)
			for i := 0; i < n; i++ {
				p.Send(1, i, []float64{float64(i)})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			in := p.Recv(0, i)
			if in[0] != float64(i) {
				return fmt.Errorf("message %d carried %v", i, in[0])
			}
			ReleaseBuf(in)
		}
		return nil
	})
}

// TestSenderParkedOnFullBox: rank 0 fills the mailbox to its cap and
// parks; only then does rank 1 start draining. Nothing is lost or
// reordered across the park, with and without the watchdog's
// instrumented park path.
func TestSenderParkedOnFullBox(t *testing.T) {
	n := mailboxCap(2) + 40
	for _, opts := range []Options{{}, {StallTimeout: failTestStall}} {
		_, err := RunOpts(sim.Delta(2), opts, func(p *Proc) error {
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					p.Send(1, i, []float64{float64(i)})
				}
				return nil
			}
			parked(p.m.box(0, 1), true)
			for i := 0; i < n; i++ {
				in := p.Recv(0, i)
				if in[0] != float64(i) {
					return fmt.Errorf("message %d carried %v", i, in[0])
				}
				ReleaseBuf(in)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseRacesParkedReceiver: a sender posts k messages and closes while
// the receiver parks and wakes as it pleases; the receiver must see
// exactly the k messages in order and then the termination, never hang
// and never lose the close.
func TestCloseRacesParkedReceiver(t *testing.T) {
	for round := 0; round < 500; round++ {
		k := round % 7
		b := newMailbox(64)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < k; i++ {
				b.put(message{tag: int32(i), count: noCount}, nil)
			}
			b.close()
		}()
		wakeCh := make(chan struct{}, 1)
		for want := int32(0); ; {
			msg, ok, closed := b.take(wakeCh)
			if ok {
				if msg.tag != want {
					t.Fatalf("round %d: took tag %d, want %d", round, msg.tag, want)
				}
				want++
				continue
			}
			if closed {
				if int(want) != k {
					t.Fatalf("round %d: closed after %d of %d messages", round, want, k)
				}
				break
			}
			<-wakeCh
		}
		wg.Wait()
		recycle(b)
	}
}

// TestConcurrentMachinesShareFreeList: several machines run at once, each
// taking its mailboxes from, and returning them to, the one free list.
func TestConcurrentMachinesShareFreeList(t *testing.T) {
	const procs = 8
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10 && errs[g] == nil; round++ {
				_, errs[g] = Run(sim.Delta(procs), func(p *Proc) error {
					parts := make([][]float64, procs)
					for d := range parts {
						parts[d] = []float64{float64(g), float64(p.Rank()), float64(d)}
					}
					for src, in := range p.AllToAll(1, parts) {
						if in[0] != float64(g) || in[1] != float64(src) || in[2] != float64(p.Rank()) {
							return fmt.Errorf("machine %d rank %d: part from %d carried %v", g, p.Rank(), src, in)
						}
						ReleaseBuf(in)
					}
					p.Barrier(2)
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("machine %d: %v", g, err)
		}
	}
}

// freeList empties the free list and returns what it held.
func freeList() []*mailbox {
	boxPool.mu.Lock()
	defer boxPool.mu.Unlock()
	held := boxPool.free
	boxPool.free, boxPool.bytes = nil, 0
	return held
}

// TestAbortedRunHandsBackEmptyMailboxes: a run that aborts with payloads
// stranded in its mailboxes (the scenario of
// TestStrandedMailboxPayloadsReturned) must still return every one of
// them fresh, so the next run sees nothing of it.
func TestAbortedRunHandsBackEmptyMailboxes(t *testing.T) {
	freeList()
	opts := Options{
		Kill:         []KillSpec{{Rank: 1, Op: 2}},
		StallTimeout: failTestStall,
	}
	_, err := RunOpts(sim.Delta(2), opts, func(p *Proc) error {
		peer := 1 - p.Rank()
		p.Send(peer, 0, []float64{1, 2, 3})
		p.Send(peer, 1, []float64{4, 5, 6})
		ReleaseBuf(p.Recv(peer, 0)) // rank 1 is killed here
		ReleaseBuf(p.Recv(peer, 1))
		return nil
	})
	if err == nil {
		t.Fatal("killing a rank should fail the run")
	}
	held := freeList()
	if len(held) != 2 {
		t.Fatalf("the aborted run returned %d mailboxes, want 2", len(held))
	}
	for _, b := range held {
		checkFresh(t, b)
	}
}

// TestSecondRunMakesNoMailbox: a second barrier-only run at P=64 takes
// every mailbox, ring and all, from what the first one returned.
func TestSecondRunMakesNoMailbox(t *testing.T) {
	const procs = 64
	secondRunMakesNoMailbox(t, procs, 2*(procs-1), func(p *Proc) error {
		p.Barrier(1)
		return nil
	})
}

// TestSecondOwnedExchangeMakesNoMailbox: the same for an owned all-to-all,
// which touches every ordered pair.
func TestSecondOwnedExchangeMakesNoMailbox(t *testing.T) {
	const procs = 8
	secondRunMakesNoMailbox(t, procs, procs*(procs-1), func(p *Proc) error {
		parts := make([][]float64, procs)
		for d := range parts {
			parts[d] = AcquireBuf(16)
		}
		for _, in := range p.AllToAllOwned(1, parts) {
			ReleaseBuf(in)
		}
		return nil
	})
}

// secondRunMakesNoMailbox runs node twice from an empty free list: the
// first run must return wantBoxes mailboxes, and the second must hold
// none but those.
func secondRunMakesNoMailbox(t *testing.T, procs, wantBoxes int, node NodeFunc) {
	once := func() *Machine {
		var m *Machine
		run(t, procs, func(p *Proc) error {
			if p.Rank() == 0 {
				m = p.m
			}
			return node(p)
		})
		return m
	}
	freeList()
	once()
	type storage struct {
		b    *mailbox
		ring *message
	}
	returned := make(map[storage]bool)
	boxPool.mu.Lock()
	for _, b := range boxPool.free {
		returned[storage{b, &b.ring[:1][0]}] = true
	}
	boxPool.mu.Unlock()
	if len(returned) != wantBoxes {
		t.Fatalf("the first run returned %d mailboxes, want %d", len(returned), wantBoxes)
	}
	m := once()
	for i := range m.boxes {
		if b := m.boxes[i].Load(); b != closedBox && !returned[storage{b, &b.ring[:1][0]}] {
			t.Fatalf("slot %d of the second run holds a mailbox or ring the first did not return", i)
		}
	}
}

package mp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
)

// TestSendOwnedTransfersWithoutCopy pins the zero-copy half of the
// ownership protocol: the receiver gets the exact storage the sender
// handed off.
func TestSendOwnedTransfersWithoutCopy(t *testing.T) {
	var sentPtr, gotPtr *float64
	run(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			b := AcquireBuf(256)
			for i := range b {
				b[i] = float64(i)
			}
			sentPtr = &b[0]
			p.SendOwned(1, 3, b)
			return nil
		}
		in := p.Recv(0, 3)
		for i, v := range in {
			if v != float64(i) {
				return fmt.Errorf("element %d = %v", i, v)
			}
		}
		gotPtr = &in[0]
		ReleaseBuf(in)
		return nil
	})
	if sentPtr != gotPtr {
		t.Error("SendOwned copied the payload instead of transferring ownership")
	}
}

// TestSendOwnedChargesLikeSend pins that the two send forms are
// indistinguishable to the simulation.
func TestSendOwnedChargesLikeSend(t *testing.T) {
	charge := func(owned bool) *sim.Clock {
		var clk sim.Clock
		run(t, 2, func(p *Proc) error {
			if p.Rank() == 0 {
				if owned {
					b := AcquireBuf(100)
					clear(b)
					p.SendOwned(1, 0, b)
				} else {
					p.Send(1, 0, make([]float64, 100))
				}
				clk = *p.Clock()
			} else {
				ReleaseBuf(p.Recv(0, 0))
			}
			return nil
		})
		return &clk
	}
	if a, b := charge(false).Seconds(), charge(true).Seconds(); a != b {
		t.Errorf("Send charged %v, SendOwned %v", a, b)
	}
}

// TestReleaseBufDoubleReleasePanics exercises the checked-mode protocol
// violation detector through the mp-level API.
func TestReleaseBufDoubleReleasePanics(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	b := AcquireBuf(128)
	ReleaseBuf(b)
	defer func() {
		if recover() == nil {
			t.Error("double ReleaseBuf did not panic")
		}
	}()
	ReleaseBuf(b)
}

// TestUseAfterReleaseIsPoisoned pins that checked mode makes reads of a
// released payload scream (NaN) instead of silently yielding stale data.
func TestUseAfterReleaseIsPoisoned(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	run(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 1, []float64{42})
			return nil
		}
		in := p.Recv(0, 1)
		alias := in
		ReleaseBuf(in)
		if !math.IsNaN(alias[0]) {
			return fmt.Errorf("released payload reads %v, want NaN poison", alias[0])
		}
		return nil
	})
}

// TestRecvBufferDoesNotAliasLaterSends pins the isolation half of the
// protocol: a receiver that adopts (keeps) a buffer must never see it
// rewritten by subsequent traffic.
func TestRecvBufferDoesNotAliasLaterSends(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < 8; i++ {
				p.Send(1, i, []float64{float64(i), float64(i), float64(i)})
			}
			return nil
		}
		var kept [][]float64
		for i := 0; i < 8; i++ {
			kept = append(kept, p.Recv(0, i)) // adopted, never released
		}
		for i, b := range kept {
			for _, v := range b {
				if v != float64(i) {
					return fmt.Errorf("adopted buffer %d rewritten to %v", i, v)
				}
			}
		}
		return nil
	})
}

// TestSendRecvSteadyStateZeroAllocs pins the tentpole: once the arena is
// warm, a Send/Recv round trip allocates nothing on either side.
func TestSendRecvSteadyStateZeroAllocs(t *testing.T) {
	const elems = 512
	var allocs float64
	run(t, 2, func(p *Proc) error {
		peer := 1 - p.Rank()
		if p.Rank() == 1 {
			// Echo loop: forward every payload back without copying,
			// until the zero-length sentinel.
			for {
				in := p.Recv(peer, 1)
				if len(in) == 0 {
					ReleaseBuf(in)
					return nil
				}
				p.SendOwned(peer, 2, in)
			}
		}
		payload := make([]float64, elems)
		roundTrip := func() {
			p.Send(peer, 1, payload)
			ReleaseBuf(p.Recv(peer, 2))
		}
		roundTrip() // warm the arena class
		allocs = testing.AllocsPerRun(100, roundTrip)
		p.Send(peer, 1, nil) // sentinel
		return nil
	})
	if allocs != 0 {
		t.Errorf("steady-state Send/Recv round trip allocates %v times, want 0", allocs)
	}
}

// TestBarrierSteadyStateZeroAllocs pins the same property for the
// collective bookkeeping path.
func TestBarrierSteadyStateZeroAllocs(t *testing.T) {
	var allocs [4]float64
	run(t, 4, func(p *Proc) error {
		p.Barrier(0) // warm up
		allocs[p.Rank()] = testing.AllocsPerRun(50, func() { p.Barrier(1) })
		return nil
	})
	for r, n := range allocs {
		if n != 0 {
			t.Errorf("rank %d: steady-state Barrier allocates %v times, want 0", r, n)
		}
	}
}

// TestMailboxBackpressureBeyondCap pins that overrunning the mailbox
// capacity applies backpressure (the old 1024-deep behavior) rather than
// dropping or failing, as long as the receiver eventually drains.
func TestMailboxBackpressureBeyondCap(t *testing.T) {
	n := mailboxCap(2) * 3
	run(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
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

// TestMailboxStallFailsWithDiagnostic: two ranks each overrun their
// mailbox to the other, so both park on a full mailbox and no rank is
// left to drain either. The run fails with every blocked rank's
// operation — rank, peer, tag and depth — instead of hanging the machine.
func TestMailboxStallFailsWithDiagnostic(t *testing.T) {
	err := runGuarded(t, 2, Options{}, func(p *Proc) error {
		peer := 1 - p.Rank()
		for i := 0; i <= mailboxCap(2); i++ {
			p.Send(peer, 5+p.Rank(), []float64{1})
		}
		return nil
	})
	if err == nil {
		t.Fatal("overrunning a never-drained mailbox should fail the run")
	}
	for _, want := range []string{
		"deadlock: rank 0 blocked in send to rank 1 (tag 5, depth 64)",
		"deadlock: rank 1 blocked in send to rank 0 (tag 6, depth 64)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic %q missing %q", err.Error(), want)
		}
	}
}

// TestMailboxCapDerivation pins the machine-size scaling of the mailbox
// depth.
func TestMailboxCapDerivation(t *testing.T) {
	cases := []struct{ procs, want int }{{1, 64}, {2, 64}, {16, 64}, {17, 68}, {64, 256}}
	for _, c := range cases {
		if got := mailboxCap(c.procs); got != c.want {
			t.Errorf("mailboxCap(%d) = %d, want %d", c.procs, got, c.want)
		}
	}
}

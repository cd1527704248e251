package mp

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
)

// Mailboxes are taken on first use (Machine.box) and an exiting rank
// publishes closedBox into the outgoing slots nobody used. These tests
// pin what that must not change — termination is still observed, abort
// paths still balance the arena — and what it is for: the number of
// mailboxes follows the communication pattern, not P².

// boxesMade counts the slots holding a mailbox some rank really made.
// Only meaningful after the run, when every other slot holds closedBox.
func (m *Machine) boxesMade() int {
	n := 0
	for i := range m.boxes {
		if m.boxes[i].Load() != closedBox {
			n++
		}
	}
	return n
}

// TestSilentExitStillWakesLaterRecv: rank 1 returns without sending to
// anyone. Rank 0 receives from it only after its exit has been
// published, so it meets the shared closed box; the even ranks receive
// at once and race the exit, meeting either that or a mailbox they made
// themselves and rank 1 then closed. Every one of them must wake with
// the usual dead-channel diagnostic, none may hang.
func TestSilentExitStillWakesLaterRecv(t *testing.T) {
	const procs = 64
	var m *Machine
	done := make(chan error, 1)
	go func() {
		_, err := Run(sim.Delta(procs), func(p *Proc) error {
			switch {
			case p.Rank() == 0:
				m = p.m
				for p.m.boxes[1*procs+0].Load() == nil {
					runtime.Gosched()
				}
				p.Recv(1, 5)
			case p.Rank()%2 == 0:
				p.Recv(1, 5)
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("receiving from a rank that exited silently must fail the run")
		}
		for _, want := range []string{
			"rank 1 terminated before sending the message rank 0 expected (tag 5)",
			"rank 1 terminated before sending the message rank 62 expected (tag 5)",
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q is missing %q", err.Error(), want)
			}
		}
		if got := m.boxes[1*procs+0].Load(); got != closedBox {
			t.Errorf("slot 1->0 holds %p, want the shared closed box %p", got, closedBox)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a Recv from a rank that exited without sending hung")
	}
}

// TestCollectivesMakeFewBoxes: a binomial Reduce and a Barrier touch one
// pair per tree edge and direction, so at P=64 they make 2(P-1)
// mailboxes where an eager table holds P².
func TestCollectivesMakeFewBoxes(t *testing.T) {
	const procs = 64
	var m *Machine
	run(t, procs, func(p *Proc) error {
		if p.Rank() == 0 {
			m = p.m
		}
		sum := p.Reduce(0, 3, []float64{1})
		if p.Rank() == 0 && sum[0] != procs {
			return fmt.Errorf("reduce summed to %v, want %d", sum[0], procs)
		}
		ReleaseBuf(sum)
		p.Barrier(4)
		return nil
	})
	if got := m.boxesMade(); got == 0 || got > 4*procs {
		t.Errorf("Reduce + Barrier at P=%d made %d mailboxes, want at most %d (an eager table holds %d)",
			procs, got, 4*procs, procs*procs)
	}
}

// TestKillMidAllToAllBalancesArena: a rank killed part-way through an
// AllToAll strands payloads in mailboxes made on first use, some of them
// by the receiver and never posted to. The end-of-run drain must find
// every one through the slot table.
func TestKillMidAllToAllBalancesArena(t *testing.T) {
	const procs = 8
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	opts := Options{
		Kill:         []KillSpec{{Rank: 3, Op: 5}},
		StallTimeout: failTestStall,
	}
	_, err := RunOpts(sim.Delta(procs), opts, func(p *Proc) error {
		parts := make([][]float64, procs)
		for d := range parts {
			parts[d] = []float64{float64(p.Rank()), float64(d), 1, 2}
		}
		for _, in := range p.AllToAll(6, parts) {
			ReleaseBuf(in)
		}
		return nil
	})
	if err == nil {
		t.Fatal("killing a rank should fail the run")
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Errorf("aborted AllToAll leaked arena buffers: %+v", s)
	}
}

// TestRunOptsP512 runs the top of the paper's processor range: a barrier
// and a ring exchange touch about 3P pairs, so the run holds about 1,500
// mailboxes of one four-slot ring each beside the 2 MiB slot table — 3 MiB
// in all, even when the free list has nothing to give — where P² mailboxes
// at their full depth (≈ 21 GB) cannot be allocated at all.
func TestRunOptsP512(t *testing.T) {
	const procs = 512
	freeList()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunOpts(sim.Delta(procs), Options{}, func(p *Proc) error {
		p.Barrier(1)
		return ringNode(2)(p)
	}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 6<<20 {
		t.Errorf("P=%d barrier + ring allocated %d KiB, want under 6 MiB", procs, grew>>10)
	} else {
		t.Logf("P=%d barrier + ring allocated %d KiB", procs, grew>>10)
	}
}

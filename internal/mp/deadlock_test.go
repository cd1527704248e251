package mp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/sim"
)

// Deadlock is read off the machine's own rank count: once every rank that
// has not returned is parked on a mailbox, none can ever wake another, and
// the run fails with each parked rank's operation. There is no timer on
// that path; the 10 s guard below only keeps a regression from hanging
// the suite.

// runGuarded is RunOpts on sim.Delta(procs) that fails the test if the run
// is still blocked after 10 s.
func runGuarded(t *testing.T, procs int, opts Options, node NodeFunc) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := RunOpts(sim.Delta(procs), opts, node)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("the run hung")
		return nil
	}
}

// deadlocks returns the per-rank deadlock errors of a run, by rank.
func deadlocks(err error) map[int]DeadlockError {
	out := make(map[int]DeadlockError)
	var walk func(error)
	walk = func(err error) {
		if d, ok := err.(*DeadlockError); ok {
			out[d.Rank] = *d
		}
		switch x := err.(type) {
		case interface{ Unwrap() []error }:
			for _, e := range x.Unwrap() {
				walk(e)
			}
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		}
	}
	walk(err)
	return out
}

// TestReceiveCycleIsDeadlock: two ranks each receive from the other
// first. Both park on an empty mailbox, and each reports its own receive.
func TestReceiveCycleIsDeadlock(t *testing.T) {
	err := runGuarded(t, 2, Options{}, func(p *Proc) error {
		ReleaseBuf(p.Recv(1-p.Rank(), 5))
		return nil
	})
	got := deadlocks(err)
	for rank := 0; rank < 2; rank++ {
		want := DeadlockError{Rank: rank, Peer: 1 - rank, Tag: 5}
		if got[rank] != want {
			t.Errorf("rank %d: got %+v, want %+v in %v", rank, got[rank], want, err)
		}
	}
	if want := "deadlock: rank 0 blocked in recv from rank 1 (tag 5, depth 0)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v does not contain %q", err, want)
	}
}

// TestOverrunOfReturnedRankFails: rank 1 returns without receiving, and
// rank 0 sends it one message more than its mailbox holds. Whether rank 0
// fills the mailbox after rank 1 returned (the mailbox made after rank
// 1's exit) or parks on it before (released by that exit), the send that
// would park fails at once with a plan-bug error naming both ranks and
// the tag.
func TestOverrunOfReturnedRankFails(t *testing.T) {
	for _, parkFirst := range []bool{false, true} {
		err := runGuarded(t, 2, Options{}, func(p *Proc) error {
			if p.Rank() == 1 {
				if parkFirst {
					parked(p.m.box(0, 1), true)
				}
				return nil
			}
			for !parkFirst && !p.m.rows[1].returned.Load() {
				runtime.Gosched()
			}
			for i := 0; i <= mailboxCap(2); i++ {
				p.Send(1, 5, []float64{1})
			}
			return nil
		})
		var pr *PeerReturnedError
		if !errors.As(err, &pr) || *pr != (PeerReturnedError{Rank: 0, Peer: 1, Tag: 5, Send: true}) {
			t.Fatalf("parkFirst %v: want rank 0's send to rank 1 (tag 5) to fail, got %v", parkFirst, err)
		}
		if want := "rank 1 returned with rank 0's mailbox to it full (tag 5)"; !strings.Contains(err.Error(), want) {
			t.Errorf("parkFirst %v: error %v does not contain %q", parkFirst, err, want)
		}
	}
}

// TestKillBesideReceiveCycle: rank 3 is killed, rank 2 receives from it
// and detects the death, and ranks 0 and 1 are stuck in a receive cycle
// that has nothing to do with it. The run reports the failed set [3],
// the detection on rank 2 and the deadlock on ranks 0 and 1 — whichever
// order the ranks park and exit in.
func TestKillBesideReceiveCycle(t *testing.T) {
	for i := 0; i < 50; i++ {
		err := runGuarded(t, 4, Options{Faults: []Fault{{Rank: 3, Op: 0}}}, func(p *Proc) error {
			switch p.Rank() {
			case 0, 1:
				ReleaseBuf(p.Recv(1-p.Rank(), 7))
			case 2:
				ReleaseBuf(p.Recv(3, 8))
			case 3:
				p.Send(2, 8, []float64{1}) // killed before it sends
			}
			return nil
		})
		var rf *RankFailure
		if !errors.As(err, &rf) || fmt.Sprint(rf.Failed) != "[3]" {
			t.Fatalf("run %d: want a RankFailure with failed set [3], got %v", i, err)
		}
		var dead *ErrRankDead
		if !errors.As(err, &dead) || dead.Rank != 3 || dead.Tag != 8 {
			t.Errorf("run %d: rank 2 did not detect rank 3's death: %v", i, err)
		}
		got := deadlocks(err)
		if len(got) != 2 || got[0].Peer != 1 || got[1].Peer != 0 {
			t.Errorf("run %d: want ranks 0 and 1 to report the deadlock, got %+v in %v", i, got, err)
		}
	}
}

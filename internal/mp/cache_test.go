package mp

import (
	"errors"
	"sync"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
)

// reduceRotating runs n payload reductions whose root rotates over the
// ranks, as GAXPY's global sums rotate with their columns' owners; the
// root releases each sum to its cache.
func reduceRotating(p *Proc, n int, data []float64) {
	for i := range n {
		p.Cache().PutF64(p.Reduce(i%p.Size(), 7, data))
	}
}

// TestReduceSteadyStateSkipsArena: once a rotating reduction is warm, its
// payloads cycle between the ranks' caches — the accumulator from the
// rank's cache, each child's payload back into it — and the shared arena
// sees no get and no put.
func TestReduceSteadyStateSkipsArena(t *testing.T) {
	const procs, elems = 4, 50
	var warm, start, done sync.WaitGroup
	warm.Add(procs)
	start.Add(1)
	done.Add(procs)
	var before, after bufpool.Stats
	run(t, procs, func(p *Proc) error {
		data := make([]float64, elems)
		reduceRotating(p, 2*procs, data)
		// Host-side barriers: no rank is parked on a mailbox while the
		// counters are read.
		warm.Done()
		if p.Rank() == 0 {
			warm.Wait()
			before = bufpool.Snapshot()
			start.Done()
		}
		start.Wait()
		reduceRotating(p, 100, data)
		done.Done()
		if p.Rank() == 0 {
			done.Wait()
			after = bufpool.Snapshot()
		}
		return nil
	})
	if after.Gets != before.Gets || after.Puts != before.Puts {
		t.Errorf("100 warm reductions on %d ranks reached the arena: %+v before, %+v after", procs, before, after)
	}
}

// cachedThenStranded warms every rank's cache with rotating reductions,
// then leaves a payload in the mailbox to the next rank that nobody
// receives.
func cachedThenStranded(p *Proc) {
	reduceRotating(p, 3*p.Size(), make([]float64, 40))
	p.Send((p.Rank()+1)%p.Size(), 5, make([]float64, 30))
}

// TestKilledRunBalancesCachedPayloads: a rank killed mid-reduction, with
// payloads in its peers' caches, in mailboxes and in flight, leaves the
// checked arena balanced once the run returns — every cache is flushed
// when its rank returns and every stranded message drained.
func TestKilledRunBalancesCachedPayloads(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	err := runGuarded(t, 4, Options{Faults: []Fault{{Rank: 2, Op: 30}}}, func(p *Proc) error {
		cachedThenStranded(p)
		reduceRotating(p, 40, make([]float64, 40))
		return nil
	})
	var killed *RankKilledError
	if !errors.As(err, &killed) {
		t.Fatalf("want a killed rank, got %v", err)
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Errorf("killed run left the arena out of balance: %+v", s)
	}
}

// TestDeadlockedRunBalancesCachedPayloads: every rank parks in a receive
// nobody will send, with payloads in the caches and in the mailboxes, and
// the checked arena still balances once the run returns.
func TestDeadlockedRunBalancesCachedPayloads(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	err := runGuarded(t, 4, Options{}, func(p *Proc) error {
		cachedThenStranded(p)
		p.Cache().PutF64(p.Recv((p.Rank()+1)%p.Size(), 6))
		return nil
	})
	if len(deadlocks(err)) != 4 {
		t.Fatalf("want every rank deadlocked, got %v", err)
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Errorf("deadlocked run left the arena out of balance: %+v", s)
	}
}

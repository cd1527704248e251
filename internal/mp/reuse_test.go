package mp

import (
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// reuseNode touches every part of a machine a run can leave behind: ring
// messages (clocks, flow ids, op counts), an owned all-to-all (the Proc's
// result slice, every mailbox), a reduction and a barrier.
func reuseNode(p *Proc) error {
	if err := ringNode(3)(p); err != nil {
		return err
	}
	parts := make([][]float64, p.Size())
	for d := range parts {
		parts[d] = AcquireBuf(4)
		parts[d][0] = float64(p.Rank())
	}
	for _, in := range p.AllToAllOwned(1, parts) {
		ReleaseBuf(in)
	}
	ReleaseBuf(p.AllReduce(2, []float64{float64(p.Rank())}))
	p.Barrier(3)
	return nil
}

// TestMachineReuseAfterDeadlockAndKill: a deadlocked run and a run with a
// killed rank, each on the machine the previous run returned, leave
// nothing behind — a clean run on that machine gives the first run's
// statistics to the bit.
func TestMachineReuseAfterDeadlockAndKill(t *testing.T) {
	const procs = 8
	freeList()
	var machine *Machine
	track := func(node NodeFunc) NodeFunc {
		return func(p *Proc) error {
			if p.Rank() == 0 {
				if machine != nil && p.m != machine {
					t.Error("a run at the same P made a machine instead of taking the returned one")
				}
				machine = p.m
			}
			return node(p)
		}
	}
	clean := func() []byte {
		t.Helper()
		stats, err := Run(sim.Delta(procs), track(reuseNode))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := clean()

	_, err := Run(sim.Delta(procs), track(func(p *Proc) error {
		if err := reuseNode(p); err != nil {
			return err
		}
		ReleaseBuf(p.Recv((p.Rank()+1)%procs, 9)) // nobody sends
		return nil
	}))
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("the receive cycle should deadlock, got %v", err)
	}
	_, err = RunOpts(sim.Delta(procs), Options{Faults: []Fault{{Rank: 1, Op: 4}}}, track(reuseNode))
	var killed *RankKilledError
	if !errors.As(err, &killed) {
		t.Fatalf("the run should lose rank 1, got %v", err)
	}

	if again := clean(); string(again) != string(first) {
		t.Errorf("a clean run after a deadlock and a kill gives different statistics:\n got %s\nwant %s", again, first)
	}
}

// TestSecondRunMakesNoSlotTable: a second run at P=64 takes the first's
// machine, so it allocates less than the slot table's P×P×8 bytes beyond
// the statistics it hands its caller. A run at P+1 goes first, so that
// the Go runtime has goroutines to reuse and does not count them here.
func TestSecondRunMakesNoSlotTable(t *testing.T) {
	const procs = 64
	node := func(p *Proc) error {
		p.Barrier(1)
		return ringNode(2)(p)
	}
	if _, err := Run(sim.Delta(procs+1), node); err != nil {
		t.Fatal(err)
	}
	freeList()
	if _, err := Run(sim.Delta(procs), node); err != nil {
		t.Fatal(err)
	}
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats := trace.NewStats(procs)
	runtime.ReadMemStats(&mid)
	if _, err := Run(sim.Delta(procs), node); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(stats)
	statsBytes := mid.TotalAlloc - before.TotalAlloc
	table := uint64(procs * procs * 8)
	if grew := after.TotalAlloc - mid.TotalAlloc - statsBytes; grew >= table {
		t.Errorf("the second run at P=%d allocated %d B beside its %d B of statistics, want under %d B (a slot table)", procs, grew, statsBytes, table)
	} else {
		t.Logf("the second run at P=%d allocated %d B beside its %d B of statistics", procs, grew, statsBytes)
	}
}

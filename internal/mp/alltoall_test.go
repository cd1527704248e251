package mp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// a2aPart is what rank src sends rank dst in call k of the tests below:
// lengths differ by pair and call, some parts are empty and — for the
// owned form — some are nil.
func a2aPart(src, dst, k int) []float64 {
	n := (3*src + 5*dst + 7*k) % 6
	if n == 0 {
		if (src+dst)%2 == 0 {
			return nil
		}
		return []float64{}
	}
	part := make([]float64, n)
	for i := range part {
		part[i] = float64(src*10000 + dst*100 + k*10 + i)
	}
	return part
}

// a2aNode runs two all-to-alls, so the owned form's second call finds
// the result slice its first one handed out. It records every payload
// received and the rank's final clock, and releases what it received.
func a2aNode(owned bool, got [][]float64, clocks []uint64) NodeFunc {
	return func(p *Proc) error {
		for k := 0; k < 2; k++ {
			parts := make([][]float64, p.Size())
			for d := range parts {
				part := a2aPart(p.Rank(), d, k)
				if owned && part != nil {
					parts[d] = AcquireBuf(len(part))
					copy(parts[d], part)
				} else {
					parts[d] = part
				}
			}
			var in [][]float64
			if owned {
				in = p.AllToAllOwned(4, parts)
				for d, part := range parts {
					if part != nil {
						return fmt.Errorf("rank %d: AllToAllOwned left parts[%d] behind", p.Rank(), d)
					}
				}
			} else {
				in = p.AllToAll(4, parts)
			}
			for s, part := range in {
				if want := a2aPart(s, p.Rank(), k); !slices.Equal(part, want) {
					return fmt.Errorf("rank %d call %d: from %d got %v, want %v", p.Rank(), k, s, part, want)
				}
				got[p.Rank()] = append(got[p.Rank()], part...)
				ReleaseBuf(part)
			}
		}
		clocks[p.Rank()] = math.Float64bits(p.Clock().Seconds())
		return nil
	}
}

// TestAllToAllOwnedIsAllToAllToTheSimulation runs the same exchanges
// through both collectives from the same starting state: payloads,
// statistics (floats compared as they are), clocks to the bit, operation
// counts and span sequences must be the same — handing the buckets over
// is invisible to the simulation. The checked arena must balance.
func TestAllToAllOwnedIsAllToAllToTheSimulation(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for _, procs := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("p=%d", procs), func(t *testing.T) {
			type outcome struct {
				stats  *trace.Stats
				ops    []int64
				clocks []uint64
				got    [][]float64
				spans  [][]trace.Span
			}
			observe := func(owned bool) outcome {
				o := outcome{ops: make([]int64, procs), clocks: make([]uint64, procs),
					got: make([][]float64, procs), spans: make([][]trace.Span, procs)}
				tr := trace.NewTracer(procs)
				node := a2aNode(owned, o.got, o.clocks)
				bufpool.ResetStats()
				var err error
				o.stats, err = RunOpts(sim.Delta(procs), Options{OpCounts: o.ops}, func(p *Proc) error {
					p.SetTracer(tr.Rank(p.Rank()))
					return node(p)
				})
				if err != nil {
					t.Fatal(err)
				}
				if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
					t.Errorf("owned=%v: arena out of balance: %+v", owned, s)
				}
				for r := range o.spans {
					o.spans[r] = tr.RankSpans(r)
				}
				return o
			}
			copied, owned := observe(false), observe(true)
			for r := 0; r < procs; r++ {
				if copied.stats.Procs[r] != owned.stats.Procs[r] {
					t.Errorf("rank %d statistics differ:\ncopied %+v\nowned  %+v", r, copied.stats.Procs[r], owned.stats.Procs[r])
				}
				if copied.clocks[r] != owned.clocks[r] {
					t.Errorf("rank %d clock bits differ: %x copied, %x owned", r, copied.clocks[r], owned.clocks[r])
				}
				if copied.ops[r] != owned.ops[r] {
					t.Errorf("rank %d performed %d ops copied, %d owned", r, copied.ops[r], owned.ops[r])
				}
				if !slices.Equal(copied.got[r], owned.got[r]) {
					t.Errorf("rank %d received different payloads", r)
				}
				if !reflect.DeepEqual(copied.spans[r], owned.spans[r]) {
					t.Errorf("rank %d span sequences differ (%d vs %d spans)", r, len(copied.spans[r]), len(owned.spans[r]))
				}
			}
			if len(copied.spans[0]) == 0 {
				t.Error("the tracer recorded nothing")
			}
		})
	}
}

// TestAllToAllOwnedMovesBuffers pins the ownership rule: the buffer a
// rank put in parts[d] is the one rank d receives, parts[rank] comes back
// as out[rank], and the result slice is the Proc's — the next call hands
// out the same one.
func TestAllToAllOwnedMovesBuffers(t *testing.T) {
	const procs = 3
	var sentTo, gotFrom [procs][procs]unsafe.Pointer
	run(t, procs, func(p *Proc) error {
		var first *[]float64
		for k := 0; k < 2; k++ {
			parts := make([][]float64, procs)
			for d := range parts {
				parts[d] = AcquireBuf(4)
				sentTo[p.Rank()][d] = unsafe.Pointer(unsafe.SliceData(parts[d]))
			}
			out := p.AllToAllOwned(2, parts)
			if k == 0 {
				first = &out[0]
			} else if first != &out[0] {
				return fmt.Errorf("rank %d: the second call made a new result slice", p.Rank())
			}
			for s, in := range out {
				gotFrom[p.Rank()][s] = unsafe.Pointer(unsafe.SliceData(in))
			}
			p.Barrier(3) // every rank has recorded before any buffer is reused
			for _, in := range out {
				ReleaseBuf(in)
			}
			for s := range gotFrom[p.Rank()] {
				if gotFrom[p.Rank()][s] != sentTo[s][p.Rank()] {
					return fmt.Errorf("rank %d: the buffer from %d is not the one it sent", p.Rank(), s)
				}
			}
			p.Barrier(3)
		}
		return nil
	})
}

// TestKillSweepOverAllToAllOwned lands a kill on every op index of a rank
// inside two owned exchanges. Wherever it lands, each buffer is in
// exactly one place — still in parts (the caller's deferred release, as
// collio does it), in the message being charged, in a mailbox or in the
// result slice — so the checked arena balances and nothing is released
// twice.
func TestKillSweepOverAllToAllOwned(t *testing.T) {
	const procs, victim = 4, 1
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	node := func(p *Proc) error {
		parts := make([][]float64, procs)
		defer func() {
			for _, part := range parts {
				ReleaseBuf(part)
			}
		}()
		for k := 0; k < 2; k++ {
			for d := range parts {
				parts[d] = AcquireBuf(8)
			}
			for _, in := range p.AllToAllOwned(5, parts) {
				ReleaseBuf(in)
			}
		}
		return nil
	}
	counts := make([]int64, procs)
	if _, err := RunOpts(sim.Delta(procs), Options{OpCounts: counts}, node); err != nil {
		t.Fatal(err)
	}
	if counts[victim] != 2*2*(procs-1) {
		t.Fatalf("the victim performs %d ops, want a send and a receive per peer and call", counts[victim])
	}
	for op := int64(0); op < counts[victim]; op++ {
		bufpool.ResetStats()
		opts := Options{
			Kill:         []KillSpec{{Rank: victim, Op: op}},
			StallTimeout: failTestStall,
		}
		if _, err := RunOpts(sim.Delta(procs), opts, node); err == nil {
			t.Fatalf("kill at op %d: the run should fail", op)
		}
		if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
			t.Errorf("kill at op %d: arena out of balance: %+v", op, s)
		}
	}
}

// TestAllToAllOwnedSteadyStateZeroAllocs: with its mailboxes made and its
// result slice kept on the Proc, an owned exchange allocates nothing on
// any rank.
func TestAllToAllOwnedSteadyStateZeroAllocs(t *testing.T) {
	const procs = 4
	var allocs [procs]float64
	run(t, procs, func(p *Proc) error {
		parts := make([][]float64, procs)
		exchange := func() {
			for d := range parts {
				parts[d] = AcquireBuf(64)
			}
			for _, in := range p.AllToAllOwned(0, parts) {
				ReleaseBuf(in)
			}
		}
		exchange() // warm up
		p.Barrier(1)
		allocs[p.Rank()] = testing.AllocsPerRun(50, exchange)
		return nil
	})
	for r, n := range allocs {
		if n != 0 {
			t.Errorf("rank %d: steady-state AllToAllOwned allocates %v times, want 0", r, n)
		}
	}
}

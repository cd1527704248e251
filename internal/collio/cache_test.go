package collio

import (
	"errors"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

// TestRoundBucketsRecycleThroughCache: a round's buckets come from the
// rank's cache and go back to it, so once a round has warmed it, filling
// and releasing rounds never reaches the shared arena.
func TestRoundBucketsRecycleThroughCache(t *testing.T) {
	const n, p, w = 64, 4, 4
	srcMap, dstMap := colBlockMap(t, "src", n, p), colBlockMap(t, "dst", n, p)
	sched := newSchedule(0, p, srcMap, dstMap.Tables2(), Side{Rows: n, Cols: n / p}, 2*n*w, Transpose())
	defer sched.release()
	data := make([]float64, n*w)
	parts := make([][]float64, p)
	var bufs bufpool.Cache
	defer bufs.Flush()
	round := func() int {
		sched.fill(&bufs, parts, data, 0)
		filled := 0
		for _, b := range parts {
			filled += len(b)
		}
		releaseBuckets(&bufs, parts)
		return filled
	}
	if round() == 0 {
		t.Fatal("the round filled no bucket")
	}
	before := bufpool.Snapshot()
	for range 10 {
		round()
	}
	if after := bufpool.Snapshot(); after.Gets != before.Gets || after.Puts != before.Puts {
		t.Errorf("warm rounds reached the arena: %+v before, %+v after", before, after)
	}
}

// TestKilledRedistributionBalancesCachedPayloads: a rank killed part-way
// through a transpose, with buckets in the ranks' caches, in parts and in
// mailboxes, leaves the checked arena balanced once the run returns and
// the files are gone.
func TestKilledRedistributionBalancesCachedPayloads(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	const n, p = 16, 4
	srcMap, dstMap := colBlockMap(t, "src", n, p), colBlockMap(t, "dst", n, p)
	fs := iosim.NewMemFS()
	_, err := mp.RunOpts(sim.Delta(p), mp.Options{Faults: []mp.Fault{{Rank: 1, Op: 8}}}, func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), nil)
		src := sideFor(t, disk, srcMap, proc.Rank(), valueAt)
		dst := sideFor(t, disk, dstMap, proc.Rank(), nil)
		defer discard(disk, src, dst)
		return Redistribute(proc, src, dst, 2*n, 30, Transpose(), Direct)
	})
	var killed *mp.RankKilledError
	if !errors.As(err, &killed) {
		t.Fatalf("want a killed rank, got %v", err)
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Errorf("killed redistribution left the arena out of balance: %+v", s)
	}
}

package cost

import (
	"testing"

	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/sim"
)

// TestClampWidthMatchesCollio pins the duplicated slab-width rule against
// the runtime's: the closed forms are only exact while the two agree.
func TestClampWidthMatchesCollio(t *testing.T) {
	for _, mem := range []int{1, 2, 7, 16, 100, 4096, 1 << 20} {
		for _, rows := range []int{1, 3, 8, 256} {
			for _, cols := range []int{1, 2, 9, 64} {
				if got, want := clampWidth(mem/2, rows, cols), collio.SrcSlabWidth(mem, rows, cols); got != want {
					t.Fatalf("src width diverged at mem=%d rows=%d cols=%d: cost %d, collio %d",
						mem, rows, cols, got, want)
				}
				if got, want := clampWidth(mem/4, rows, cols), collio.WindowWidth(mem, rows, cols); got != want {
					t.Fatalf("window width diverged at mem=%d rows=%d cols=%d: cost %d, collio %d",
						mem, rows, cols, got, want)
				}
			}
		}
	}
}

// TestTransposeCandidatesShape checks the fixed order and the shared
// phase-1 terms.
func TestTransposeCandidatesShape(t *testing.T) {
	cands := TransposeCandidates(TransposeParams{N: 256, P: 4, MemElems: 16 * 256})
	if len(cands) != 3 {
		t.Fatalf("want 3 candidates, got %d", len(cands))
	}
	for i, label := range []string{"direct", "sieved", "two-phase"} {
		if cands[i].Label != label {
			t.Fatalf("candidate %d is %q, want %q", i, cands[i].Label, label)
		}
		if cands[i].Tallies[0] != cands[0].Tallies[0] {
			t.Fatalf("%s does not share the phase-1 read tally", label)
		}
		if cands[i].Comm != cands[0].Comm {
			t.Fatalf("%s does not share the shuffle estimate", label)
		}
	}
	// The canonical validated scale: w1=8 gives 8 rounds, direct leaves
	// n*rounds write requests, two-phase spills through 16 windows.
	if got := cands[0].TotalRequests(); got != 2056 {
		t.Fatalf("direct requests = %d, want 2056", got)
	}
	if got := cands[1].TotalRequests(); got != 24 {
		t.Fatalf("sieved requests = %d, want 24", got)
	}
	if got := cands[2].TotalRequests(); got != 168 {
		t.Fatalf("two-phase requests = %d, want 168", got)
	}
}

// TestTransposeShuffleAndScratchVolume pins the volume terms: the shuffle
// carries values only, so a rank sends each of its p−1 peers its c×c
// block, (p−1)c² elements; a spilling two-phase receiver writes each of
// its local elements to scratch once and reads it back once.
func TestTransposeShuffleAndScratchVolume(t *testing.T) {
	for _, g := range []TransposeParams{{N: 256, P: 4, MemElems: 16 * 256}, {N: 1024, P: 8, MemElems: 16 * 1024}, {N: 64, P: 4, MemElems: 64 * 64}} {
		c, p := int64(g.N/g.P), int64(g.P)
		local := int64(g.N) * c
		for _, cand := range TransposeCandidates(g) {
			if want := (p - 1) * c * c; cand.Comm.Elems != want {
				t.Errorf("%+v %s: Comm.Elems = %d, want (p-1)c² = %d", g, cand.Label, cand.Comm.Elems, want)
			}
			for _, tl := range cand.Tallies {
				if tl.Array == "scratch" && tl.Elems != local {
					t.Errorf("%+v %s: scratch tally of %d elements, want the local array's %d", g, cand.Label, tl.Elems, local)
				}
			}
		}
	}
}

// TestTransposeSingleRoundDegenerates checks the generous-memory limit:
// with the whole local array in one slab every method is one read and
// one (or per-window) contiguous write, and direct stops paying the
// fragmentation penalty.
func TestTransposeSingleRoundDegenerates(t *testing.T) {
	g := TransposeParams{N: 64, P: 4, MemElems: 64 * 64} // slab = all 16 local columns
	cands := TransposeCandidates(g)
	if got := cands[0].TotalRequests(); got != 2 {
		t.Fatalf("single-round direct wants 1 read + 1 write, got %d requests", got)
	}
	if got := cands[1].TotalRequests(); got != 2 {
		t.Fatalf("single-round sieved degenerates to a plain write, got %d requests", got)
	}
	// In-memory two-phase: one read plus one write per window.
	if got, min := cands[2].TotalRequests(), int64(2); got < min {
		t.Fatalf("two-phase requests = %d", got)
	}
}

// TestTransposeSelectionFollowsOverhead checks the Figure 14 behavior on
// the request-overhead axis: the Delta's 15ms overhead punishes direct's
// fragmented writes; with free requests the bandwidth term takes over
// and direct's single-pass data volume wins.
func TestTransposeSelectionFollowsOverhead(t *testing.T) {
	g := TransposeParams{N: 256, P: 4, MemElems: 16 * 256}
	cands := TransposeCandidates(g)

	delta := sim.Delta(4)
	if sel := cands[Select(cands, delta)].Label; sel == "direct" {
		t.Fatalf("direct selected on the Delta calibration")
	}
	free := delta
	free.DiskRequestOverhead = 0
	if sel := cands[Select(cands, free)].Label; sel != "direct" {
		t.Fatalf("with zero request overhead direct must win, selected %s", sel)
	}
}

// TestTallySeconds pins the cost accounting of the new tally/comm terms.
func TestTallySeconds(t *testing.T) {
	cfg := sim.Delta(4)
	tl := Tally{Requests: 10, Elems: 1000}
	want := cfg.IOTime(10, 1000*int64(cfg.ElemSize))
	if got := tl.Seconds(cfg); got != want {
		t.Fatalf("tally seconds = %g, want %g", got, want)
	}
	var none CommEstimate
	if none.Seconds(cfg) != 0 {
		t.Fatal("empty comm estimate must cost nothing")
	}
	comm := CommEstimate{Messages: 3, Elems: 50}
	wantComm := 3*cfg.MsgLatency + 50*float64(cfg.ElemSize)/cfg.MsgBandwidth
	if got := comm.Seconds(cfg); got != wantComm {
		t.Fatalf("comm seconds = %g, want %g", got, wantComm)
	}
}

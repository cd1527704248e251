package parity

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// TestGeometryInvariants checks the stripe layout's two load-bearing
// properties: parity never lands on the disk whose data it covers, and
// the stripe<->block mapping round-trips for every rank.
func TestGeometryInvariants(t *testing.T) {
	for procs := 2; procs <= 8; procs++ {
		for rank := 0; rank < procs; rank++ {
			seen := make(map[int64]bool)
			for k := int64(0); k < 200; k++ {
				s := StripeOf(procs, rank, k)
				if seen[s] {
					t.Fatalf("P=%d r=%d: block %d reuses stripe %d", procs, rank, k, s)
				}
				seen[s] = true
				p := ParityRankOf(procs, s)
				if p == rank {
					t.Fatalf("P=%d r=%d block %d: parity on own disk (stripe %d)", procs, rank, k, s)
				}
				if got := DataBlockOf(procs, rank, s); got != k {
					t.Fatalf("P=%d r=%d: DataBlockOf(StripeOf(%d)) = %d", procs, rank, k, got)
				}
				if got := DataBlockOf(procs, p, s); got != -1 {
					t.Fatalf("P=%d stripe %d: parity rank %d reports data block %d", procs, s, p, got)
				}
			}
		}
	}
}

func TestParseLAF(t *testing.T) {
	cases := []struct {
		name string
		base string
		rank int
		ok   bool
	}{
		{"c.p3.laf", "c", 3, true},
		{"array.p0.laf", "array", 0, true},
		{"c.p1.collio.scratch", "", 0, false},
		{"ckpt.s0.c.p1.laf", "ckpt.s0.c", 1, true},
		{"c.p2.parity", "", 0, false},
		{"noprefix.laf", "", 0, false},
	}
	for _, c := range cases {
		base, rank, ok := parseLAF(c.name)
		if ok != c.ok || (ok && (base != c.base || rank != c.rank)) {
			t.Errorf("parseLAF(%q) = (%q, %d, %v), want (%q, %d, %v)",
				c.name, base, rank, ok, c.base, c.rank, c.ok)
		}
	}
}

// writeVia writes src at elem offset off through the protected LAF.
func writeVia(t *testing.T, l *iosim.LAF, off int64, src []float64) {
	t.Helper()
	if _, err := l.WriteChunks([]iosim.Chunk{{Off: off, Len: len(src)}}, src); err != nil {
		t.Fatalf("write: %v", err)
	}
}

// setupGroup creates a protected group of P files with random content,
// returning the disks, LAFs and expected per-rank content.
func setupGroup(t *testing.T, fs iosim.FS, st *Store, cfg sim.Config, res *iosim.Resilience, procs int, elems int64, stats []*trace.IOStats) ([]*iosim.Disk, []*iosim.LAF, [][]float64) {
	t.Helper()
	st.Protect("c")
	rng := rand.New(rand.NewSource(7))
	disks := make([]*iosim.Disk, procs)
	lafs := make([]*iosim.LAF, procs)
	want := make([][]float64, procs)
	for r := 0; r < procs; r++ {
		var s *trace.IOStats
		if stats != nil {
			s = stats[r]
		}
		disks[r] = iosim.NewResilientDisk(fs, cfg, s, res)
		disks[r].SetParity(st)
		l, err := disks[r].CreateLAF(fmt.Sprintf("c.p%d.laf", r), elems)
		if err != nil {
			t.Fatalf("create rank %d: %v", r, err)
		}
		lafs[r] = l
		want[r] = make([]float64, elems)
		for i := range want[r] {
			want[r][i] = rng.Float64()
		}
		writeVia(t, l, 0, want[r])
	}
	return disks, lafs, want
}

// loseDisk loses rank's logical disk as the executor does when a
// scheduled loss fires: the rank's open file fails from now on and is
// gone from the file system, and the store drops its handles on the disk
// and counts the disk's parity as lost.
func loseDisk(st *Store, l *iosim.LAF, rank int) {
	l.Lose()
	st.LoseDisk(rank)
}

// TestReconstructAfterDiskLoss drops every file of one logical disk and
// checks that a read of the lost file comes back bitwise identical via
// parity reconstruction, for every choice of lost disk.
func TestReconstructAfterDiskLoss(t *testing.T) {
	const procs = 4
	const elems = 700 // deliberately not a multiple of the 128-elem block
	for lost := 0; lost < procs; lost++ {
		t.Run(fmt.Sprintf("disk%d", lost), func(t *testing.T) {
			mem := iosim.NewMemFS()
			cfg := sim.Delta(procs)
			res := iosim.NewResilience(iosim.DefaultRetryPolicy())
			stats := make([]*trace.IOStats, procs)
			comm := make([]*trace.ProcStats, procs)
			st := NewStore(mem, cfg, procs, res)
			for r := 0; r < procs; r++ {
				stats[r] = &trace.IOStats{}
				comm[r] = &trace.ProcStats{}
				st.SetCommSink(r, comm[r])
			}
			_, lafs, want := setupGroup(t, mem, st, cfg, res, procs, elems, stats)

			loseDisk(st, lafs[lost], lost)

			got := make([]float64, elems)
			sec, err := lafs[lost].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got)
			if err != nil {
				t.Fatalf("degraded read: %v", err)
			}
			if sec <= 0 {
				t.Fatalf("degraded read charged no simulated time")
			}
			for i, v := range got {
				if v != want[lost][i] {
					t.Fatalf("element %d: got %v want %v after reconstruction", i, v, want[lost][i])
				}
			}
			if stats[lost].Reconstructions != 1 {
				t.Fatalf("Reconstructions = %d, want 1", stats[lost].Reconstructions)
			}
			wantBlocks := int64(elems*iosim.FileElemBytes+BlockBytes-1) / BlockBytes
			if stats[lost].ReconstructedBlocks != wantBlocks {
				t.Fatalf("ReconstructedBlocks = %d, want %d", stats[lost].ReconstructedBlocks, wantBlocks)
			}
			if comm[lost].Comm.RecoveryMessages != wantBlocks*int64(procs-1) {
				t.Fatalf("RecoveryMessages = %d, want %d", comm[lost].Comm.RecoveryMessages, wantBlocks*(procs-1))
			}
			if !st.Degraded() {
				t.Fatalf("store not marked degraded after reconstruction")
			}

			// The replacement file must verify against reseeded checksums
			// on a plain (non-degraded) re-read too.
			again := make([]float64, elems)
			if _, err := lafs[lost].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, again); err != nil {
				t.Fatalf("re-read after recovery: %v", err)
			}
		})
	}
}

// TestWriteAfterDiskLossRecovers loses a disk and then writes to the lost
// file: the write path must reconstruct the old content first (the parity
// update needs it) and land the new data, parity included — proven by
// losing the disk a second time and reading back.
func TestWriteAfterDiskLossRecovers(t *testing.T) {
	const procs = 3
	const elems = 512
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	res := iosim.NewResilience(iosim.DefaultRetryPolicy())
	st := NewStore(mem, cfg, procs, res)
	_, lafs, want := setupGroup(t, mem, st, cfg, res, procs, elems, nil)

	loseDisk(st, lafs[1], 1)

	patch := []float64{1.5, -2.5, 3.25}
	writeVia(t, lafs[1], 100, patch)
	copy(want[1][100:], patch)

	// Second loss of the same disk: reconstruction now must reproduce
	// the patched content, i.e. the degraded write also updated parity.
	loseDisk(st, lafs[1], 1)
	got := make([]float64, elems)
	if _, err := lafs[1].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("read after second loss: %v", err)
	}
	for i, v := range got {
		if v != want[1][i] {
			t.Fatalf("element %d: got %v want %v", i, v, want[1][i])
		}
	}
}

// TestParityCountersClosedForm checks the RMW accounting against the
// advertised closed form for block-aligned writes.
func TestParityCountersClosedForm(t *testing.T) {
	const procs = 4
	const elems = 1024 // 8 blocks of 128 elements
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	st := NewStore(mem, cfg, procs, nil)
	st.Protect("c")
	stats := &trace.IOStats{}
	d := iosim.NewDisk(mem, cfg, stats)
	d.SetParity(st)
	l, err := d.CreateLAF("c.p0.laf", elems)
	if err != nil {
		t.Fatal(err)
	}
	// One write of 2 blocks (256 elems, aligned): nb=2, R=min(2,3)=2.
	writeVia(t, l, 256, make([]float64, 256))
	if stats.ParityReads != 3 || stats.ParityWrites != 2 {
		t.Fatalf("ParityReads/Writes = %d/%d, want 3/2", stats.ParityReads, stats.ParityWrites)
	}
	wantRead := int64((2048 + 2*1024) * cfg.ElemSize / 8)
	wantWritten := int64(2 * 1024 * cfg.ElemSize / 8)
	if stats.ParityBytesRead != wantRead || stats.ParityBytesWritten != wantWritten {
		t.Fatalf("ParityBytesRead/Written = %d/%d, want %d/%d",
			stats.ParityBytesRead, stats.ParityBytesWritten, wantRead, wantWritten)
	}
}

// TestDirtyGroupRefusesReconstruction: a group whose parity is flagged
// out of sync must refuse to fabricate data.
func TestDirtyGroupRefusesReconstruction(t *testing.T) {
	const procs = 3
	const elems = 128
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	st := NewStore(mem, cfg, procs, nil)
	_, lafs, _ := setupGroup(t, mem, st, cfg, nil, procs, elems, nil)

	// Re-creating a member under a live group leaves stale parity.
	nd := iosim.NewDisk(mem, cfg, nil)
	nd.SetParity(st)
	if _, err := nd.CreateLAF("c.p2.laf", elems); err != nil {
		t.Fatal(err)
	}
	if !st.NeedsRebuild(0) {
		t.Fatal("store not dirty after member re-creation")
	}
	loseDisk(st, lafs[0], 0)
	got := make([]float64, elems)
	_, err := lafs[0].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got)
	if err == nil {
		t.Fatal("degraded read of dirty group succeeded; want refusal")
	}
	if !errors.Is(err, iosim.ErrDiskLost) {
		t.Fatalf("error chain lost the original disk-loss fault: %v", err)
	}
}

// TestRebuildRankRestoresRedundancy dirties a group, rebuilds parity on
// every rank, and checks a subsequent disk loss is survivable again.
func TestRebuildRankRestoresRedundancy(t *testing.T) {
	const procs = 4
	const elems = 300
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	res := iosim.NewResilience(iosim.DefaultRetryPolicy())
	st := NewStore(mem, cfg, procs, res)
	disks, lafs, want := setupGroup(t, mem, st, cfg, res, procs, elems, nil)

	// Corrupt the parity state wholesale, then resync.
	for p := 0; p < procs; p++ {
		f, err := mem.Create(ParityFileName("c", p))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	st.MarkDirty("c")
	for r := 0; r < procs; r++ {
		if _, err := st.RebuildRank(disks[r], r); err != nil {
			t.Fatalf("rebuild rank %d: %v", r, err)
		}
	}
	st.ClearDirty()
	if st.NeedsRebuild(0) {
		t.Fatal("store still dirty after full rebuild")
	}

	loseDisk(st, lafs[2], 2)
	got := make([]float64, elems)
	if _, err := lafs[2].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("read after rebuild: %v", err)
	}
	for i, v := range got {
		if v != want[2][i] {
			t.Fatalf("element %d: got %v want %v", i, v, want[2][i])
		}
	}
}

// TestWriteWithParityOnLostDiskIsDegraded: a peer's write whose parity
// lives on a lost disk is charged exactly as a write to an intact group
// (the closed-form read-modify-write) but stores no parity and rebuilds
// nothing inline; the disk's parity stays lost until the rebuild, which
// recomputes it from the data the write left — so a later loss of the
// writer's own disk reconstructs the written content.
func TestWriteWithParityOnLostDiskIsDegraded(t *testing.T) {
	const procs = 4
	const elems = 1024
	setup := func() (*Store, []*iosim.Disk, []*iosim.LAF, [][]float64, []*trace.IOStats) {
		mem := iosim.NewMemFS()
		cfg := sim.Delta(procs)
		res := iosim.NewResilience(iosim.DefaultRetryPolicy())
		st := NewStore(mem, cfg, procs, res)
		stats := make([]*trace.IOStats, procs)
		for r := range stats {
			stats[r] = &trace.IOStats{}
		}
		disks, lafs, want := setupGroup(t, mem, st, cfg, res, procs, elems, stats)
		for _, s := range stats {
			*s = trace.IOStats{}
		}
		return st, disks, lafs, want, stats
	}
	patch := make([]float64, elems)
	for i := range patch {
		patch[i] = float64(i) + 0.5
	}

	_, _, intactLAFs, _, intact := setup()
	writeVia(t, intactLAFs[0], 0, patch)

	st, disks, lafs, want, stats := setup()
	loseDisk(st, lafs[2], 2)
	pname := ParityFileName("c", 2)
	if err := st.fs.Remove(pname); err != nil {
		t.Fatal(err)
	}
	if !st.NeedsRebuild(2) {
		t.Fatal("a lost disk's parity does not count as out of sync")
	}
	if st.NeedsRebuild(0) {
		t.Fatal("disk 2's loss reaches rank 0's rebuild answer: it is rank 2's to rebuild")
	}
	writeVia(t, lafs[0], 0, patch) // covers every parity rank, disk 2's included
	copy(want[0], patch)
	if *stats[0] != *intact[0] {
		t.Fatalf("degraded write charged %+v, an intact one %+v", *stats[0], *intact[0])
	}
	if stats[0].ParityRebuilds != 0 || stats[0].Reconstructions != 0 {
		t.Fatalf("degraded write did recovery work inline: %+v", *stats[0])
	}
	if _, err := st.fs.Open(pname); err == nil {
		t.Fatalf("degraded write stored parity on the lost disk (%s)", pname)
	}

	// The lost disk's own file comes back from the other three disks'
	// parity, which the write kept current.
	got := make([]float64, elems)
	if _, err := lafs[2].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("reconstruct the lost disk's file: %v", err)
	}
	if !slices.Equal(got, want[2]) {
		t.Fatal("lost disk's file reconstructed wrong")
	}
	if _, err := st.RebuildRank(disks[2], 2); err != nil {
		t.Fatal(err)
	}
	if stats[2].ParityRebuilds == 0 {
		t.Fatal("the rebuild did not recompute the lost disk's parity")
	}
	st.ClearDirty()
	if st.NeedsRebuild(2) {
		t.Fatal("store still dirty after the rebuild")
	}

	loseDisk(st, lafs[0], 0)
	if _, err := lafs[0].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("read after losing the writer's disk: %v", err)
	}
	if !slices.Equal(got, want[0]) {
		t.Fatal("the degraded write is missing from the rebuilt parity")
	}
}

// TestSequentialFileFaultsInOneGroupSurvive: a file that fails on its
// own (not its disk) is reconstructed, and its rank's parity file is
// presumed lost with it; the next write that updates that parity
// rebuilds it inline, so a later fault of another member whose stripes
// park parity there is reconstructed too instead of refused as a double
// fault.
func TestSequentialFileFaultsInOneGroupSurvive(t *testing.T) {
	const procs = 4
	const elems = 1024
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	res := iosim.NewResilience(iosim.DefaultRetryPolicy())
	st := NewStore(mem, cfg, procs, res)
	_, lafs, want := setupGroup(t, mem, st, cfg, res, procs, elems, nil)

	got := make([]float64, elems)
	lafs[1].Lose()
	if _, err := lafs[1].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("reconstruct the first failed file: %v", err)
	}
	if !st.NeedsRebuild(0) {
		t.Fatal("the reconstructed file's own parity is not presumed lost")
	}
	patch := make([]float64, elems)
	for i := range patch {
		patch[i] = float64(i) - 0.25
	}
	writeVia(t, lafs[0], 0, patch) // covers every parity rank, rank 1's included
	copy(want[0], patch)
	if st.NeedsRebuild(0) {
		t.Fatal("the write did not rebuild the lost parity file inline")
	}

	lafs[2].Lose()
	if _, err := lafs[2].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("reconstruct the second failed file: %v", err)
	}
	if !slices.Equal(got, want[2]) {
		t.Fatal("second failed file reconstructed wrong")
	}
}

package parity

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
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

// protect marks "c" protected with procs members of elems elements each.
func protect(st *Store, procs int, elems int64) {
	sizes := make([]int64, procs)
	for r := range sizes {
		sizes[r] = elems * iosim.FileElemBytes
	}
	st.Protect("c", sizes...)
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
	protect(st, procs, elems)
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
	}
	// Every member exists, and with it every parity file, before any is
	// written: the executor's create rendezvous.
	for r := 0; r < procs; r++ {
		want[r] = make([]float64, elems)
		for i := range want[r] {
			want[r][i] = rng.Float64()
		}
		writeVia(t, lafs[r], 0, want[r])
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
			st := NewStore(mem, cfg, procs)
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
	st := NewStore(mem, cfg, procs)
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
	st := NewStore(mem, cfg, procs)
	protect(st, procs, elems)
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
	st := NewStore(mem, cfg, procs)
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
	st := NewStore(mem, cfg, procs)
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
// (the closed-form read-modify-write) and takes exactly as many of the
// writer's file operations (its parity read and write go to
// iosim.Discard), but stores no parity and rebuilds nothing inline; the
// disk's parity stays lost until the rebuild, which recomputes it from
// the data the write left — so a later loss of the writer's own disk
// reconstructs the written content.
func TestWriteWithParityOnLostDiskIsDegraded(t *testing.T) {
	const procs = 4
	const elems = 1024
	setup := func() (*Store, []*iosim.Disk, []*iosim.LAF, [][]float64, []*trace.IOStats) {
		mem := iosim.NewMemFS()
		cfg := sim.Delta(procs)
		res := iosim.NewResilience(iosim.DefaultRetryPolicy())
		st := NewStore(mem, cfg, procs)
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

	// counted makes the write through rank 0's disk and returns how many
	// file operations it took.
	counted := func(d *iosim.Disk, l *iosim.LAF) int64 {
		var chaos iosim.Chaos
		chaos.Reset(iosim.ChaosConfig{}, 0, nil)
		d.SetChaos(&chaos)
		defer d.SetChaos(nil)
		writeVia(t, l, 0, patch)
		return chaos.Counts().Ops
	}
	_, intactDisks, intactLAFs, _, intact := setup()
	intactOps := counted(intactDisks[0], intactLAFs[0])

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
	// The write covers every parity rank, disk 2's included.
	if ops := counted(disks[0], lafs[0]); ops != intactOps {
		t.Fatalf("the degraded write took %d file operations, an intact one %d", ops, intactOps)
	}
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
// own (not its disk) is reconstructed, and nothing of its rank's parity
// file is presumed lost with it — none of the file's stripes park parity
// there, and writes keep it current — so a later fault of another member
// whose stripes park parity there is reconstructed too instead of
// refused as a double fault.
func TestSequentialFileFaultsInOneGroupSurvive(t *testing.T) {
	const procs = 4
	const elems = 1024
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	res := iosim.NewResilience(iosim.DefaultRetryPolicy())
	st := NewStore(mem, cfg, procs)
	_, lafs, want := setupGroup(t, mem, st, cfg, res, procs, elems, nil)

	got := make([]float64, elems)
	lafs[1].Lose()
	if _, err := lafs[1].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("reconstruct the first failed file: %v", err)
	}
	if !slices.Equal(got, want[1]) {
		t.Fatal("first failed file reconstructed wrong")
	}
	if st.NeedsRebuild(0) {
		t.Fatal("a single file's fault left a rebuild pending")
	}
	patch := make([]float64, elems)
	for i := range patch {
		patch[i] = float64(i) - 0.25
	}
	writeVia(t, lafs[0], 0, patch) // covers every parity rank, rank 1's included
	copy(want[0], patch)

	lafs[2].Lose()
	if _, err := lafs[2].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("reconstruct the second failed file: %v", err)
	}
	if !slices.Equal(got, want[2]) {
		t.Fatal("second failed file reconstructed wrong")
	}
	lafs[0].Lose()
	if _, err := lafs[0].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("reconstruct the patched file: %v", err)
	}
	if !slices.Equal(got, want[0]) {
		t.Fatal("the patch is missing from the parity")
	}
}

// TestFailedParityUpdateIsRepairedByItsWriter: a parity update that fails
// is repaired at once by the rank whose write it was, so no other rank
// finds the file stale; when the repair fails too, the file is lost
// until its host's rebuild in the next parity sync, and keeps taking
// updates meanwhile.
func TestFailedParityUpdateIsRepairedByItsWriter(t *testing.T) {
	const procs = 4
	const elems = 1024
	for _, tc := range []struct {
		name     string
		fault    mp.Fault
		repaired bool
	}{
		// Rank 0's write: op 0 reads the old data, op 1 writes the new,
		// op 2 reads the first parity run, op 3 writes it.
		{"repaired", mp.Fault{Op: 3, Kind: mp.IOPermanent}, true},
		{"lost until the sync", mp.Fault{Op: 3, Kind: mp.IOOutage}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := iosim.NewMemFS()
			cfg := sim.Delta(procs)
			res := iosim.NewResilience(iosim.DefaultRetryPolicy())
			st := NewStore(mem, cfg, procs)
			disks, lafs, want := setupGroup(t, mem, st, cfg, res, procs, elems, nil)

			var chaos iosim.Chaos
			chaos.Reset(iosim.ChaosConfig{}, 0, []mp.Fault{tc.fault})
			disks[0].SetChaos(&chaos)
			patch := make([]float64, elems)
			for i := range patch {
				patch[i] = float64(i) + 0.5
			}
			writeVia(t, lafs[0], 0, patch)
			copy(want[0], patch)
			disks[0].SetChaos(nil)
			if c := chaos.Counts(); c.Permanent == 0 {
				t.Fatalf("the fault never fired: %+v", c)
			}
			if !st.Degraded() {
				t.Fatal("no repair ran")
			}
			if got := st.NeedsRebuild(1); got == tc.repaired {
				t.Fatalf("NeedsRebuild = %v after a repair that succeeded: %v", got, tc.repaired)
			}
			if !tc.repaired {
				for r := 0; r < procs; r++ {
					if _, err := st.RebuildRank(disks[r], r); err != nil {
						t.Fatalf("rebuild rank %d: %v", r, err)
					}
				}
				st.ClearDirty()
			}
			// Every parity file now covers the patch: any member comes back.
			got := make([]float64, elems)
			for r := 1; r < procs; r++ {
				lafs[r].Lose()
				if _, err := lafs[r].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
					t.Fatalf("reconstruct rank %d: %v", r, err)
				}
				if !slices.Equal(got, want[r]) {
					t.Fatalf("rank %d reconstructed wrong", r)
				}
			}
		})
	}
}

// TestFaultOnTheDiscardHandleIsNotRepaired pins what a drawn fault does
// to a degraded write's parity transfer: a permanent fault on the read
// of a lost disk's parity file (iosim.Discard) ends that parity update
// and nothing else. The data write stands, the live parity files take
// their updates, no repair runs (the file is its host's to rebuild), no
// other rank is asked to rebuild, and the lost disk's file still comes
// back from the other disks' parity.
func TestFaultOnTheDiscardHandleIsNotRepaired(t *testing.T) {
	const procs = 4
	const elems = 1024
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	res := iosim.NewResilience(iosim.DefaultRetryPolicy())
	st := NewStore(mem, cfg, procs)
	stats := make([]*trace.IOStats, procs)
	for r := range stats {
		stats[r] = &trace.IOStats{}
	}
	_, lafs, want := setupGroup(t, mem, st, cfg, res, procs, elems, stats)
	*stats[0] = trace.IOStats{}
	loseDisk(st, lafs[2], 2)
	if err := mem.Remove(ParityFileName("c", 2)); err != nil {
		t.Fatal(err)
	}

	// Rank 0's whole-file write: op 0 reads the old data, op 1 writes the
	// new, and each parity rank in turn (1, 2, 3) takes a read and a
	// write, so op 4 is the read of disk 2's parity.
	var chaos iosim.Chaos
	chaos.Reset(iosim.ChaosConfig{}, 0, []mp.Fault{{Op: 4, Kind: mp.IOPermanent}})
	lafs[0].Disk().SetChaos(&chaos)
	patch := make([]float64, elems)
	for i := range patch {
		patch[i] = float64(i) - 0.75
	}
	writeVia(t, lafs[0], 0, patch)
	copy(want[0], patch)
	lafs[0].Disk().SetChaos(nil)
	if c := chaos.Counts(); c.Permanent != 1 || c.Ops != 7 {
		t.Fatalf("counts = %+v, want the fault fired and 7 operations (no parity write after the failed read)", c)
	}
	if stats[0].ParityRebuilds != 0 {
		t.Fatalf("the writer rebuilt %d parity blocks, want no repair", stats[0].ParityRebuilds)
	}
	if st.NeedsRebuild(0) || !st.NeedsRebuild(2) {
		t.Fatal("a fault on the lost disk's parity changed who must rebuild")
	}
	if _, err := mem.Open(ParityFileName("c", 2)); err == nil {
		t.Fatal("a parity file was made on the lost disk")
	}
	got := make([]float64, elems)
	if _, err := lafs[2].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
		t.Fatalf("reconstruct the lost disk's file: %v", err)
	}
	if !slices.Equal(got, want[2]) {
		t.Fatal("lost disk's file reconstructed wrong")
	}
}

// flipAtRest flips one bit of the named file's byte off on the file
// system itself, behind every checksum.
func flipAtRest(t *testing.T, fs iosim.FS, name string, off int64) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestParityBlockCorruptAtRestFailsReconstruction: parity blocks carry
// checksums in the data blocks' table, so a reconstruction that gathers
// a parity block flipped at rest fails with an *iosim.CorruptionError
// naming that file and block instead of returning wrong data.
func TestParityBlockCorruptAtRestFailsReconstruction(t *testing.T) {
	const procs = 4
	const elems = 1024
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	res := iosim.NewResilience(iosim.DefaultRetryPolicy())
	st := NewStore(mem, cfg, procs)
	_, lafs, _ := setupGroup(t, mem, st, cfg, res, procs, elems, nil)

	// Rank 0's third data block has its parity at block q of rank p's
	// parity file.
	s := StripeOf(procs, 0, 2)
	p, q := ParityRankOf(procs, s), ParityIndexOf(procs, s)
	pname := ParityFileName("c", p)
	flipAtRest(t, mem, pname, q*BlockBytes+100)

	loseDisk(st, lafs[0], 0)
	got := make([]float64, elems)
	_, err := lafs[0].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got)
	var ce *iosim.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("reconstruction over a corrupt parity block: %v, want a checksum mismatch", err)
	}
	if ce.File != pname || ce.Block != q {
		t.Fatalf("mismatch on %s block %d, want %s block %d", ce.File, ce.Block, pname, q)
	}
}

// TestParityReadCorruptionIsDetectedAndRetried: a bit flipped on the
// read path of a read-modify-write's parity read is caught by the parity
// block's checksum, counted as a corruption, and read again, so the
// update folds into intact parity: every member still reconstructs.
func TestParityReadCorruptionIsDetectedAndRetried(t *testing.T) {
	const procs = 4
	const elems = 1024
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	res := iosim.NewResilience(iosim.DefaultRetryPolicy())
	st := NewStore(mem, cfg, procs)
	stats := make([]*trace.IOStats, procs)
	for r := range stats {
		stats[r] = &trace.IOStats{}
	}
	_, lafs, want := setupGroup(t, mem, st, cfg, res, procs, elems, stats)
	*stats[0] = trace.IOStats{}

	// Op 2 of rank 0's write is the read of the first parity run.
	var chaos iosim.Chaos
	chaos.Reset(iosim.ChaosConfig{}, 0, []mp.Fault{{Op: 2, Kind: mp.IOCorrupt}})
	lafs[0].Disk().SetChaos(&chaos)
	patch := make([]float64, elems)
	for i := range patch {
		patch[i] = float64(i) * 0.5
	}
	writeVia(t, lafs[0], 0, patch)
	copy(want[0], patch)
	lafs[0].Disk().SetChaos(nil)
	if c := chaos.Counts(); c.Corruptions != 1 {
		t.Fatalf("counts = %+v, want one corruption", c)
	}
	if stats[0].Corruptions != 1 || stats[0].Retries != 1 {
		t.Fatalf("the writer's statistics %+v, want one corruption detected and retried", *stats[0])
	}
	if st.Degraded() {
		t.Fatal("a retried read ran a repair")
	}
	got := make([]float64, elems)
	for r := 1; r < procs; r++ {
		lafs[r].Lose()
		if _, err := lafs[r].ReadChunks([]iosim.Chunk{{Off: 0, Len: elems}}, got); err != nil {
			t.Fatalf("reconstruct rank %d: %v", r, err)
		}
		if !slices.Equal(got, want[r]) {
			t.Fatalf("rank %d reconstructed wrong: the flipped bit reached the parity", r)
		}
	}
}

// TestWriteThroughOfAnUnregisteredFileFails: a write the store is asked
// to carry for a protected file it never saw created or opened is an
// error naming the file, and no data is written.
func TestWriteThroughOfAnUnregisteredFileFails(t *testing.T) {
	const procs = 4
	mem := iosim.NewMemFS()
	cfg := sim.Delta(procs)
	st := NewStore(mem, cfg, procs)
	protect(st, procs, 128)
	d := iosim.NewDisk(mem, cfg, nil)
	d.SetParity(st)
	wrote := false
	write := func() (float64, error) { wrote = true; return 0, nil }
	_, err := st.WriteThrough(d, "c.p0.laf", 0, 8, make([]byte, 8), write)
	if err == nil || !strings.Contains(err.Error(), "c.p0.laf") {
		t.Fatalf("WriteThrough of an unregistered file: %v, want an error naming it", err)
	}
	if wrote {
		t.Fatal("the data write ran")
	}
}

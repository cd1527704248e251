package exec

import (
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/parity"
	"github.com/ooc-hpf/passion/internal/sim"
)

// parityResilience returns a fresh retry layer for the parity tests (a
// small budget: disk loss is permanent, retries must not mask it).
func parityResilience() *iosim.Resilience {
	return iosim.NewResilience(iosim.RetryPolicy{MaxRetries: 3, BaseBackoff: 1e-3, MaxBackoff: 4e-3})
}

// lossOp is the operation of rank 1 at which the disk-loss tests lose
// its disk: past the input fills and well before the end, in both of
// chaosProgram's strategies (rank 1 counts 148 row-slab and 166
// column-slab operations, the first 40 of them fills).
const lossOp = 64

// rank1Loss schedules the loss of rank 1's disk at lossOp.
func rank1Loss() []mp.Fault {
	return []mp.Fault{{Rank: 1, Op: lossOp, Kind: mp.LoseDisk}}
}

// TestParityDiskLossRecovers: a GAXPY run that loses an entire logical
// disk mid-execution completes under parity protection, produces output
// bitwise identical to the fault-free run, and surfaces reconstruction
// traffic in the statistics. After Close no parity files remain.
func TestParityDiskLossRecovers(t *testing.T) {
	for _, force := range []string{"row-slab", "column-slab"} {
		t.Run(force, func(t *testing.T) {
			res := chaosProgram(t, force)
			want := baselineC(t, res)

			mem := iosim.NewMemFS()
			out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
				FS:         mem,
				Fill:       sweepFills(),
				Resilience: parityResilience(),
				Parity:     true,
				Faults:     rank1Loss(),
			})
			if err != nil {
				t.Fatalf("disk loss must be survived with parity enabled: %v", err)
			}
			if len(out.DiskLosses) == 0 {
				t.Fatalf("the scheduled disk loss never fired: %+v", out.DiskLosses)
			}
			got, err := out.ReadArray("c")
			if err != nil {
				t.Fatal(err)
			}
			if err := matricesIdentical(got, want); err != nil {
				t.Fatalf("degraded run diverged from fault-free run: %v", err)
			}
			io := out.Stats.TotalIO()
			if io.Reconstructions == 0 || io.ReconstructedBlocks == 0 || io.ReconstructedBytes == 0 {
				t.Fatalf("reconstruction not surfaced in IOStats: %+v", io)
			}
			if io.ParityReads == 0 || io.ParityWrites == 0 {
				t.Fatalf("parity maintenance not surfaced in IOStats: %+v", io)
			}
			if comm := out.Stats.TotalComm(); comm.RecoveryMessages == 0 || comm.RecoveryBytes == 0 {
				t.Fatalf("reconstruction gather traffic not surfaced in CommStats: %+v", comm)
			}
			if ps := out.ParityStore(); ps == nil || !ps.Degraded() {
				t.Fatal("a run that reconstructed a disk must report Degraded")
			}
			if err := out.Close(); err != nil {
				t.Fatal(err)
			}
			for _, name := range mem.Names() {
				if strings.HasSuffix(name, ".parity") {
					t.Fatalf("Close left parity file %s behind", name)
				}
			}
		})
	}
}

// TestParityDisabledDiskLossFailsFast: the same disk loss without parity
// protection must fail the run, with the injected disk-loss fault visible
// in the error chain.
func TestParityDisabledDiskLossFailsFast(t *testing.T) {
	res := chaosProgram(t, "column-slab")
	_, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
		Fill:       sweepFills(),
		Resilience: parityResilience(),
		Faults:     rank1Loss(),
	})
	if err == nil {
		t.Fatal("disk loss without parity must fail the run")
	}
	if !errors.Is(err, iosim.ErrDiskLost) {
		t.Fatalf("error chain does not surface the disk loss: %v", err)
	}
}

// TestParityPhantomMatchesReal: a phantom (accounting-only) parity run
// reproduces the real run's parity counters and simulated time exactly.
func TestParityPhantomMatchesReal(t *testing.T) {
	res := chaosProgram(t, "column-slab")
	mach := sim.Delta(res.Program.Procs)

	real, err := Run(res.Program, mach, Options{Fill: sweepFills(), Parity: true})
	if err != nil {
		t.Fatal(err)
	}
	phantom, err := Run(res.Program, mach, Options{Parity: true, Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	ri, pi := real.Stats.TotalIO(), phantom.Stats.TotalIO()
	if ri.ParityReads != pi.ParityReads || ri.ParityWrites != pi.ParityWrites ||
		ri.ParityBytesRead != pi.ParityBytesRead || ri.ParityBytesWritten != pi.ParityBytesWritten {
		t.Fatalf("phantom parity counters diverge:\nreal    %+v\nphantom %+v", ri, pi)
	}
	if ri.Seconds != pi.Seconds {
		t.Fatalf("phantom parity time diverges: real %g phantom %g", ri.Seconds, pi.Seconds)
	}
}

// TestParityFaultFreeBitwiseAndOverheadOnly: with no faults injected, a
// parity-protected run changes only the parity counters (and the time
// they cost), not the result or the unprotected request accounting.
func TestParityFaultFreeBitwiseAndOverheadOnly(t *testing.T) {
	res := chaosProgram(t, "column-slab")
	want := baselineC(t, res)
	mach := sim.Delta(res.Program.Procs)

	out, err := Run(res.Program, mach, Options{Fill: sweepFills(), Parity: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadArray("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := matricesIdentical(got, want); err != nil {
		t.Fatalf("parity-protected run diverged: %v", err)
	}
	if ps := out.ParityStore(); ps.Degraded() {
		t.Fatal("fault-free run must not be degraded")
	}

	plain, err := Run(res.Program, mach, Options{Fill: sweepFills()})
	if err != nil {
		t.Fatal(err)
	}
	oi, pi := out.Stats.TotalIO(), plain.Stats.TotalIO()
	if oi.Requests() != pi.Requests() || oi.Bytes() != pi.Bytes() {
		t.Fatalf("parity changed the unprotected accounting: %d/%d reqs, %d/%d bytes",
			oi.Requests(), pi.Requests(), oi.Bytes(), pi.Bytes())
	}
	if oi.ParityReads == 0 || oi.ParityWrites == 0 {
		t.Fatalf("no parity overhead recorded: %+v", oi)
	}
}

// TestRedistributeCrashResumeProperty (satellite): sweep kill points
// across an out-of-core transpose whose body is a single collective
// Redistribute. Every killed execution must either resume from the
// initial checkpoint to the bitwise-correct result or (if killed before
// that first commit) report ErrNoCheckpoint; and after Close the store
// holds no files — in particular no leaked two-phase scratch LAFs.
func TestRedistributeCrashResumeProperty(t *testing.T) {
	const n, memElems = 64, 16 * 64
	cres, err := compiler.CompileSource(hpf.TransposeSource, compiler.Options{
		N: n, Procs: 4, MemElems: memElems, Force: "two-phase",
	})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := cres.Analysis.Transpose.Src, cres.Analysis.Transpose.Dst
	fill := func(gi, gj int) float64 { return float64(gi*n + gj + 1) }
	fills := map[string]func(int, int) float64{src: fill}
	mach := sim.Delta(cres.Program.Procs)
	ckpt := &CheckpointSpec{Every: 1}

	base, err := Run(cres.Program, mach, Options{Fill: fills})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.ReadArray(dst)
	if err != nil {
		t.Fatal(err)
	}

	counts := fileOps(t, cres.Program, mach, Options{Fill: fills, Checkpoint: ckpt})
	resumed, pairs := 0, 0
	for r, c := range counts {
		for k := int64(0); k < c; k++ {
			pairs++
			if redistributeKillResume(t, cres, want, ckpt, r, k) {
				resumed++
			}
		}
	}
	if resumed == 0 {
		t.Fatal("no kill point exercised a mid-redistribute resume")
	}
	t.Logf("%d (rank, op) outages over file-op counts %v", pairs, counts)
}

// redistributeKillResume kills the checkpointed transpose with an outage
// of rank r's file operations from op k on and, when the kill left a
// checkpoint, resumes it, requiring the transpose want and no file left
// after Close. It reports whether a resume ran.
func redistributeKillResume(t *testing.T, cres *compiler.Result, want *matrix.Matrix, ckpt *CheckpointSpec, r int, k int64) bool {
	t.Helper()
	mach := sim.Delta(cres.Program.Procs)
	src, dst := cres.Analysis.Transpose.Src, cres.Analysis.Transpose.Dst
	n := cres.Program.N
	fills := map[string]func(int, int) float64{src: func(gi, gj int) float64 { return float64(gi*n + gj + 1) }}
	mem := iosim.NewMemFS()
	if _, err := Run(cres.Program, mach, Options{FS: mem, Fill: fills, Checkpoint: ckpt, Faults: []mp.Fault{outage(r, k)}}); err == nil {
		return false // the outage never failed the run
	}
	out, err := Run(cres.Program, mach, Options{FS: mem, Fill: fills, Checkpoint: ckpt, Resume: true})
	if errors.Is(err, ErrNoCheckpoint) {
		return false // killed before the initial commit
	}
	if err != nil {
		t.Fatalf("rank %d op %d: Resume failed: %v", r, k, err)
	}
	got, err := out.ReadArray(dst)
	if err != nil {
		t.Fatalf("rank %d op %d: %v", r, k, err)
	}
	if err := matricesIdentical(got, want); err != nil {
		t.Fatalf("rank %d op %d: resumed transpose diverged: %v", r, k, err)
	}
	if err := out.Close(); err != nil {
		t.Fatalf("rank %d op %d: Close: %v", r, k, err)
	}
	for _, name := range mem.Names() {
		if strings.Contains(name, "collio.scratch") {
			t.Fatalf("rank %d op %d: crash+resume leaked scratch file %s", r, k, name)
		}
	}
	if names := mem.Names(); len(names) != 0 {
		t.Fatalf("rank %d op %d: Close left files behind: %v", r, k, names)
	}
	return true
}

// TestDiskLossIndependentOfScheduling: a rank whose disk goes right after
// its input fills reconstructs its files from every peer's, whether or
// not the host has started those peers yet — each rank creates its files
// before any rank's first counted operation. The elementwise program
// sends no message, so nothing else orders the ranks: one host thread
// runs a rank to its end before the next starts. The statistics must
// not depend on that, for a loss on any rank.
func TestDiskLossIndependentOfScheduling(t *testing.T) {
	const n, procs = 32, 4
	res, err := compiler.CompileSource(hpf.EwiseSource, compiler.Options{N: n, Procs: procs, MemElems: n * 8})
	if err != nil {
		t.Fatal(err)
	}
	fills := map[string]func(int, int) float64{"x": fillX, "y": fillY}
	mach := sim.Delta(procs)
	opCounts := func(phantom bool) []int64 {
		counts := make([]int64, procs)
		out, err := Run(res.Program, mach, Options{Phantom: phantom, Fill: fills, Resilience: parityResilience(), Parity: true, OpCounts: counts})
		if err != nil {
			t.Fatal(err)
		}
		out.Close()
		return counts
	}
	all, unfilled := opCounts(false), opCounts(true)
	for victim := 0; victim < procs; victim++ {
		// The first operation after the victim's fills.
		loss := []mp.Fault{{Rank: victim, Op: all[victim] - unfilled[victim], Kind: mp.LoseDisk}}
		run := func(threads int) string {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
			out, err := Run(res.Program, mach, Options{Fill: fills, Resilience: parityResilience(), Parity: true, Faults: loss})
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			if len(out.DiskLosses) != 1 || out.Stats.TotalIO().Reconstructions == 0 {
				t.Fatalf("loss %+v: fired %v, %d reconstructions", loss, out.DiskLosses, out.Stats.TotalIO().Reconstructions)
			}
			w, err := out.ReadArray("w")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if w.At(i, j) != wantW(i, j) {
						t.Fatalf("loss %+v: w(%d,%d) = %v, want %v", loss, i, j, w.At(i, j), wantW(i, j))
					}
				}
			}
			snap, err := json.Marshal(out.Stats.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return string(snap)
		}
		want := run(1)
		for _, threads := range []int{runtime.NumCPU(), 1, runtime.NumCPU()} {
			if got := run(threads); got != want {
				t.Fatalf("loss %+v at GOMAXPROCS=%d: statistics differ from GOMAXPROCS=1\ngot  %s\nwant %s", loss, threads, got, want)
			}
		}
	}
}

// TestDiskLossInParitySyncIsRebuilt sweeps each rank's disk loss over
// the last operation before the closing parity sync and every operation
// of the sync itself (the sync's barriers are the operations a protected
// run counts beyond an unprotected one). Every loss must fire, the
// parity its disk hosted must be rebuilt before the run completes — the
// files are there and the store is clean — and the statistics must not
// depend on how the host schedules the ranks.
func TestDiskLossInParitySyncIsRebuilt(t *testing.T) {
	const n, procs = 32, 4
	res, err := compiler.CompileSource(hpf.EwiseSource, compiler.Options{N: n, Procs: procs, MemElems: n * 8})
	if err != nil {
		t.Fatal(err)
	}
	fills := map[string]func(int, int) float64{"x": fillX, "y": fillY}
	mach := sim.Delta(procs)
	opCounts := func(protected bool) []int64 {
		counts := make([]int64, procs)
		out, err := Run(res.Program, mach, Options{Fill: fills, Resilience: parityResilience(), Parity: protected, OpCounts: counts})
		if err != nil {
			t.Fatal(err)
		}
		out.Close()
		return counts
	}
	synced, unsynced := opCounts(true), opCounts(false)
	for victim := 0; victim < procs; victim++ {
		if synced[victim] <= unsynced[victim] {
			t.Fatalf("rank %d counts no parity sync operation (%d vs %d)", victim, synced[victim], unsynced[victim])
		}
		for op := unsynced[victim] - 1; op < synced[victim]; op++ {
			loss := mp.Fault{Rank: victim, Op: op, Kind: mp.LoseDisk}
			run := func(threads int) string {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
				fs := iosim.NewMemFS()
				out, err := Run(res.Program, mach, Options{FS: fs, Fill: fills, Resilience: parityResilience(), Parity: true, Faults: []mp.Fault{loss}})
				if err != nil {
					t.Fatalf("loss %+v: %v", loss, err)
				}
				defer out.Close()
				if len(out.DiskLosses) != 1 || out.DiskLosses[0] != loss {
					t.Fatalf("loss %+v: fired %v", loss, out.DiskLosses)
				}
				if out.Stats.TotalIO().ParityRebuilds == 0 {
					t.Fatalf("loss %+v: the lost disk's parity was not rebuilt", loss)
				}
				for r := 0; r < procs; r++ {
					if out.pstore.NeedsRebuild(r) {
						t.Fatalf("loss %+v: the run completed with rank %d's parity still out of sync", loss, r)
					}
				}
				for _, spec := range res.Program.Arrays {
					name := parity.ParityFileName(spec.Name, victim)
					f, err := fs.Open(name)
					if err != nil {
						t.Fatalf("loss %+v: parity file %s is gone after the run: %v", loss, name, err)
					}
					f.Close()
				}
				w, err := out.ReadArray("w")
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if w.At(i, j) != wantW(i, j) {
							t.Fatalf("loss %+v: w(%d,%d) = %v, want %v", loss, i, j, w.At(i, j), wantW(i, j))
						}
					}
				}
				snap, err := json.Marshal(out.Stats.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				return string(snap)
			}
			want := run(1)
			for _, threads := range []int{runtime.NumCPU(), 1, runtime.NumCPU()} {
				if got := run(threads); got != want {
					t.Fatalf("loss %+v at GOMAXPROCS=%d: statistics differ from GOMAXPROCS=1\ngot  %s\nwant %s", loss, threads, got, want)
				}
			}
		}
	}
}

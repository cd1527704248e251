package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// A redistribution hands its buckets to the exchange (mp.AllToAllOwned)
// and takes fresh ones every round, so at any instant a bucket belongs to
// the sender's parts, a message, a mailbox or the receiver. These tests
// stop a real-data P=4 transpose everywhere it can be stopped and count
// the checked arena afterwards: whatever the owner was, it gave the
// buffer back. Each runs in two forms: the compiled program on the engine,
// whose transpose is structured, and the same arrays redistributed with
// the map as an opaque func, which goes through the inspector's exchange
// first (funcTranspose).

// forms are the two ways a sweep runs a regime's transpose.
var forms = []string{"runs", "func"}

// runForm runs regime name's transpose in one form under opts.
func runForm(ctx context.Context, form, name string, res *compiler.Result, opts Options) error {
	if form == "func" {
		return funcTranspose(ctx, name, opts)
	}
	out, err := RunCtx(ctx, res.Program, sim.Delta(res.Program.Procs), opts)
	if err == nil {
		err = out.Close()
	}
	return err
}

// funcTranspose is regime name's transpose (method/memory) with the index
// map an opaque func, which the engine never passes: the same arrays as
// the compiled program, filled, redistributed, closed and removed, on the
// machine opts describes. A context cancelled inside the collective stops
// the run after it, as the engine's next op boundary would.
func funcTranspose(ctx context.Context, name string, opts Options) error {
	const n, procs = 16, 4
	force, size, _ := strings.Cut(name, "/")
	method, err := collio.ParseMethod(force)
	if err != nil {
		return err
	}
	mem := map[string]int{"spill": 2 * n, "in-memory": 4 * n * n}[size]
	fs := opts.FS
	if fs == nil {
		fs = iosim.NewMemFS()
	}
	var maps []*dist.Array
	for _, name := range []string{"a", "b"} {
		dm, err := dist.NewArray(name, dist.NewCollapsed(n), dist.NewBlock(n, procs))
		if err != nil {
			return err
		}
		maps = append(maps, dm)
	}
	_, err = mp.RunOpts(sim.Delta(procs), opts.mpOptions(), func(proc *mp.Proc) error {
		var arrs []*oocarray.Array
		defer func() {
			for _, arr := range arrs {
				arr.Close()
				fs.Remove(fmt.Sprintf("%s.p%d.laf", arr.Name(), proc.Rank()))
			}
		}()
		for _, dm := range maps {
			disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
			if opts.failureActive() {
				disk.SetOpHook(proc.StepOp)
			}
			arr, err := oocarray.New(disk, dm, proc.Rank(), proc.Clock(), oocarray.Options{})
			if err != nil {
				return err
			}
			arrs = append(arrs, arr)
		}
		if err := arrs[0].FillGlobal(transposeFills()["a"]); err != nil {
			return err
		}
		swap := func(gi, gj int) (int, int) { return gj, gi }
		if err := oocarray.RedistributeVia(proc, arrs[0], arrs[1], mem, redistTag, swap, method); err != nil {
			return err
		}
		return ctx.Err()
	})
	return err
}

// transposeRegimes are the compiled transposes the sweeps below run: each
// destination write strategy with a receiver that spills (twice the local
// 16x4 section exceeds the budget; four rounds of one column) and one that
// holds everything in memory (one round).
func transposeRegimes(t *testing.T) map[string]*compiler.Result {
	t.Helper()
	const n, procs = 16, 4
	regimes := make(map[string]*compiler.Result)
	for _, force := range []string{"direct", "sieved", "two-phase"} {
		for name, mem := range map[string]int{"spill": 2 * n, "in-memory": 4 * n * n} {
			res, err := compiler.CompileSource(hpf.TransposeSource, compiler.Options{
				N: n, Procs: procs, MemElems: mem, Force: force,
			})
			if err != nil {
				t.Fatal(err)
			}
			regimes[force+"/"+name] = res
		}
	}
	return regimes
}

func transposeFills() map[string]func(int, int) float64 {
	return map[string]func(int, int) float64{"a": func(gi, gj int) float64 { return float64(gi*16 + gj) }}
}

// TestTransposeKillAtEveryOpBalancesArena lands a fail-stop kill of rank 1
// on every one of its operations — slab reads, the round-count reduction,
// each send and receive of each exchange, scratch appends, window reads
// and writes. Every run must resolve to the agreed failed set and leave
// the arena balanced.
func TestTransposeKillAtEveryOpBalancesArena(t *testing.T) {
	const procs, victim = 4, 1
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for name, res := range transposeRegimes(t) {
		for _, form := range forms {
			counts := make([]int64, procs)
			run := func(kill []mp.Fault) error {
				bufpool.ResetStats()
				err := runForm(context.Background(), form, name, res, Options{
					Fill: transposeFills(), OpCounts: counts, Faults: kill,
				})
				if n := arenaOutstanding(); n != 0 {
					t.Errorf("%s %s, kill %v: %d arena buffers outstanding: %+v", form, name, kill, n, bufpool.Snapshot())
				}
				return err
			}
			if err := run(nil); err != nil {
				t.Fatal(err)
			}
			total := counts[victim]
			if total < 2*(procs-1) {
				t.Fatalf("%s %s: the victim performs %d operations, fewer than one exchange", form, name, total)
			}
			for op := int64(0); op < total; op++ {
				err := run([]mp.Fault{{Rank: victim, Op: op}})
				var rf *mp.RankFailure
				if !errors.As(err, &rf) || fmt.Sprint(rf.Failed) != fmt.Sprint([]int{victim}) {
					t.Errorf("%s %s, kill at op %d of %d: want a RankFailure of rank %d, got %v", form, name, op, total, victim, err)
				}
			}
		}
	}
}

// TestTransposeFaultAtEveryFileOpBalancesArena lands one permanent fault
// on every operation of rank 0's destination file and of its scratch file
// in turn — every write of the receiver among them. The run must fail
// (nothing retries a permanent fault here), come back rather than leave
// the other ranks parked in the next exchange, balance the arena and
// leave no scratch file behind.
func TestTransposeFaultAtEveryFileOpBalancesArena(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for name, res := range transposeRegimes(t) {
		for _, form := range forms {
			run := func(schedule []iosim.ScheduledFault) (*iosim.ChaosFS, error) {
				bufpool.ResetStats()
				mem := iosim.NewMemFS()
				fs := iosim.NewChaosFS(mem, iosim.ChaosConfig{Schedule: schedule})
				err := runForm(context.Background(), form, name, res, Options{
					FS: fs, Fill: transposeFills(),
				})
				if n := arenaOutstanding(); n != 0 {
					t.Errorf("%s %s, fault %v: %d arena buffers outstanding: %+v", form, name, schedule, n, bufpool.Snapshot())
				}
				for _, file := range mem.Names() {
					if strings.Contains(file, ".collio.scratch") {
						t.Errorf("%s %s, fault %v: %s left behind", form, name, schedule, file)
					}
				}
				return fs, err
			}
			clean, err := run(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, file := range []string{"b.p0.laf", "b.p0.collio.scratch"} {
				ops := clean.FileOps(file)
				if spills := name == "two-phase/spill"; file != "b.p0.laf" && !spills {
					if ops != 0 {
						t.Fatalf("%s %s: %d operations on a scratch file that should not exist", form, name, ops)
					}
					continue
				}
				if ops < 3 {
					t.Fatalf("%s %s: %d operations on %s", form, name, ops, file)
				}
				// The file's last operation is its removal: not the run's.
				for k := int64(0); k < ops-1; k++ {
					if _, err := run([]iosim.ScheduledFault{{File: file, Op: k, Kind: iosim.KindPermanent}}); err == nil {
						t.Errorf("%s %s: a permanent fault at op %d of %s did not fail the run", form, name, k, file)
					}
				}
			}
		}
	}
}

// TestCancelMidRedistributionBalancesArena cancels the context from inside
// the redistribution — at each of rank 0's source slab reads, with
// buckets out, payloads in mailboxes and the receiver's staging live. The
// collective runs to its end (cancellation is taken at op boundaries);
// the run then stops, and the unwinding returns everything.
func TestCancelMidRedistributionBalancesArena(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	const source = "a.p0.laf"
	for name, res := range transposeRegimes(t) {
		for _, form := range forms {
			probeCtx, probe := cancelAtOp(0)
			probe.only = source
			if err := runForm(probeCtx, form, name, res, Options{FS: probe, Fill: transposeFills()}); err != nil {
				t.Fatal(err)
			}
			total := probe.ops.Load()
			inside := 0 // cancellations that landed inside the collective
			for at := int64(1); at <= total; at++ {
				bufpool.ResetStats()
				ctx, cancel := context.WithCancel(context.Background())
				fs := &cancelFS{FS: iosim.NewMemFS(), only: source, at: at, fire: func() {
					buf := make([]byte, 1<<16)
					if strings.Contains(string(buf[:runtime.Stack(buf, false)]), "collio.redistribute") {
						inside++
					}
					cancel()
				}}
				err := runForm(ctx, form, name, res, Options{FS: fs, Fill: transposeFills()})
				cancel()
				label := fmt.Sprintf("%s %s, cancel at op %d of %d on %s", form, name, at, total, source)
				if err == nil {
					// The last operations on the file are the run's clean-up:
					// cancelling there finds the plan already finished.
					if n := arenaOutstanding(); n != 0 {
						t.Fatalf("%s: %d arena buffers outstanding after a completed run", label, n)
					}
					continue
				}
				checkCancelled(t, label, err)
			}
			if inside == 0 {
				t.Errorf("%s %s: no cancellation landed inside the redistribution", form, name)
			}
		}
	}
}

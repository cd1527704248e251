package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

// A redistribution hands its buckets to the exchange (mp.AllToAllOwned)
// and takes fresh ones every round, so at any instant a bucket belongs to
// the sender's parts, a message, a mailbox or the receiver. These tests
// stop a real-data P=4 transpose everywhere it can be stopped and count
// the checked arena afterwards: whatever the owner was, it gave the
// buffer back.

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
		counts := make([]int64, procs)
		run := func(kill []mp.KillSpec) error {
			bufpool.ResetStats()
			out, err := Run(res.Program, sim.Delta(procs), Options{
				Fill: transposeFills(), OpCounts: counts, Kill: kill,
				Detect: &mp.Detector{}, StallTimeout: surviveStall,
			})
			if err == nil {
				err = out.Close()
			}
			if n := arenaOutstanding(); n != 0 {
				t.Errorf("%s, kill %v: %d arena buffers outstanding: %+v", name, kill, n, bufpool.Snapshot())
			}
			return err
		}
		if err := run(nil); err != nil {
			t.Fatal(err)
		}
		total := counts[victim]
		if total < 2*(procs-1) {
			t.Fatalf("%s: the victim performs %d operations, fewer than one exchange", name, total)
		}
		for op := int64(0); op < total; op++ {
			err := run([]mp.KillSpec{{Rank: victim, Op: op}})
			var rf *mp.RankFailure
			if !errors.As(err, &rf) || fmt.Sprint(rf.Failed) != fmt.Sprint([]int{victim}) {
				t.Errorf("%s, kill at op %d of %d: want a RankFailure of rank %d, got %v", name, op, total, victim, err)
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
		run := func(schedule []iosim.ScheduledFault) (*iosim.ChaosFS, error) {
			bufpool.ResetStats()
			mem := iosim.NewMemFS()
			fs := iosim.NewChaosFS(mem, iosim.ChaosConfig{Schedule: schedule})
			out, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
				FS: fs, Fill: transposeFills(), StallTimeout: surviveStall,
			})
			if err == nil {
				err = out.Close()
			}
			if n := arenaOutstanding(); n != 0 {
				t.Errorf("%s, fault %v: %d arena buffers outstanding: %+v", name, schedule, n, bufpool.Snapshot())
			}
			for _, file := range mem.Names() {
				if strings.Contains(file, ".collio.scratch") {
					t.Errorf("%s, fault %v: %s left behind", name, schedule, file)
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
					t.Fatalf("%s: %d operations on a scratch file that should not exist", name, ops)
				}
				continue
			}
			if ops < 3 {
				t.Fatalf("%s: %d operations on %s", name, ops, file)
			}
			// The file's last operation is its removal: not the run's.
			for k := int64(0); k < ops-1; k++ {
				if _, err := run([]iosim.ScheduledFault{{File: file, Op: k, Kind: iosim.KindPermanent}}); err == nil {
					t.Errorf("%s: a permanent fault at op %d of %s did not fail the run", name, k, file)
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
		probeCtx, probe := cancelAtOp(0)
		probe.only = source
		out, err := RunCtx(probeCtx, res.Program, sim.Delta(res.Program.Procs), Options{FS: probe, Fill: transposeFills()})
		if err != nil {
			t.Fatal(err)
		}
		total := probe.ops.Load()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
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
			out, err := RunCtx(ctx, res.Program, sim.Delta(res.Program.Procs), Options{FS: fs, Fill: transposeFills()})
			cancel()
			label := fmt.Sprintf("%s, cancel at op %d of %d on %s", name, at, total, source)
			if err == nil {
				// The last operations on the file are the run's clean-up:
				// cancelling there finds the plan already finished.
				if err := out.Close(); err != nil {
					t.Fatal(err)
				}
				if n := arenaOutstanding(); n != 0 {
					t.Fatalf("%s: %d arena buffers outstanding after a completed run", label, n)
				}
				continue
			}
			checkCancelled(t, label, err)
		}
		if inside == 0 {
			t.Errorf("%s: no cancellation landed inside the redistribution", name)
		}
	}
}

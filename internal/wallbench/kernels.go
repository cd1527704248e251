package wallbench

import (
	"context"
	"fmt"
	"time"

	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// Kernels is the suite, ordered from the narrowest hot path (raw message
// traffic) to the widest (a full protected run surviving a disk loss).
// Scales are fixed and small: the suite is a CI smoke gate, and the
// quantities it tracks (allocs/op especially) are scale-invariant
// signatures of the hot paths, not throughput numbers.
var Kernels = []Kernel{
	{Name: "sendrecv", Make: mkSendRecv},
	{Name: "gaxpy-plan", Make: mkPlan(hpf.GaxpySource, gaxpyPlanOpts, false)},
	{Name: "gaxpy-plan-deadline", Make: mkPlan(hpf.GaxpySource, gaxpyPlanOpts, true)},
	{Name: "transpose", Make: mkPlan(hpf.TransposeSource, compiler.Options{N: 256, Procs: 4, MemElems: 16 * 256, Force: "two-phase"}, false)},
	{Name: "transpose-spill", Make: mkTransposeSpill},
	{Name: "redistribute", Make: mkRedistribute},
	{Name: "parity-diskloss", Make: mkParityDiskLoss},
	{Name: "ewise", Make: mkPlan(hpf.EwiseSource, compiler.Options{N: 256, Procs: 4, MemElems: 8 * 256}, false)},
}

// gaxpyPlanOpts compiles the one program gaxpy-plan and
// gaxpy-plan-deadline both run: their sim_s must agree to the digit.
var gaxpyPlanOpts = compiler.Options{N: 128, Procs: 4, MemElems: 16 * 128}

// mkPlan builds a compiled-program kernel in phantom mode: the loop-dense
// GAXPY plan, the two-phase transpose (the shuffle's message traffic and
// the collio staging machinery, with disk payloads elided) and the
// elementwise pattern (slab pipeline bookkeeping). Compilation happens in
// setup, outside the timed region; lowering to the opcode stream is part
// of every exec.Run and therefore of the op.
//
// deadline runs each op under its own context.WithTimeout, the way
// serve.runJob does. Every other kernel runs under context.Background,
// whose nil Done channel makes the engine's per-instruction cancellation
// check free; a cancellable context is what a served job really pays
// for: one non-blocking channel receive per dispatched instruction.
// While every trip of the innermost loop was dispatched,
// gaxpy-plan-deadline read 15-20 % above gaxpy-plan (and 2.3x with a
// check that takes a lock shared by the ranks); with that loop one
// kernel (exec's lone-AXPY rule) the two read the same within the noise.
// It must report the same sim_s to the digit.
func mkPlan(src string, copts compiler.Options, deadline bool) func() (func() (float64, error), error) {
	return func() (func() (float64, error), error) {
		res, err := compiler.CompileSource(src, copts)
		if err != nil {
			return nil, err
		}
		op := func() (float64, error) {
			ctx := context.Background()
			if deadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Minute)
				defer cancel()
			}
			out, err := exec.RunCtx(ctx, res.Program, sim.Delta(copts.Procs), exec.Options{Phantom: true})
			if err != nil {
				return 0, err
			}
			return out.Stats.ElapsedSeconds(), nil
		}
		return op, nil
	}
}

// mkSendRecv measures the raw point-to-point path: a two-rank ping-pong,
// 256 round trips of a 1024-element payload per op.
func mkSendRecv() (func() (float64, error), error) {
	const rounds, elems = 256, 1024
	payload := make([]float64, elems)
	for i := range payload {
		payload[i] = float64(i)
	}
	op := func() (float64, error) {
		st, err := mp.Run(sim.Delta(2), func(p *mp.Proc) error {
			peer := 1 - p.Rank()
			for i := 0; i < rounds; i++ {
				if p.Rank() == 0 {
					p.Send(peer, 7, payload)
					echo := p.Recv(peer, 8)
					if len(echo) != elems {
						return fmt.Errorf("echo length %d", len(echo))
					}
					p.Cache().PutF64(echo)
				} else {
					in := p.Recv(peer, 7)
					p.Send(peer, 8, in)
					p.Cache().PutF64(in)
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return st.ElapsedSeconds(), nil
	}
	return op, nil
}

// mkTransposeSpill measures the compiled two-phase transpose with real
// data in the regime a served transpose runs in: twice the local array
// (2·256·32 elements) exceeds the memory budget, so the receiver spills
// every round's pairs to its scratch file and reads them back window by
// window — routing, bucketing, the scratch traffic and the final scatter
// all move payloads, which the phantom transpose kernels elide.
func mkTransposeSpill() (func() (float64, error), error) {
	const n, procs = 256, 8
	res, err := compiler.CompileSource(hpf.TransposeSource, compiler.Options{
		N: n, Procs: procs, MemElems: 16 * n, Force: "two-phase",
	})
	if err != nil {
		return nil, err
	}
	fills := map[string]func(int, int) float64{"a": func(gi, gj int) float64 { return float64(gi*n + gj) }}
	op := func() (float64, error) {
		out, err := exec.Run(res.Program, sim.Delta(procs), exec.Options{Fill: fills})
		if err != nil {
			return 0, err
		}
		sec := out.Stats.ElapsedSeconds()
		out.Close()
		return sec, nil
	}
	return op, nil
}

// mkRedistribute measures a real column-block to row-block
// redistribution with direct destination writes under a tight memory
// budget — many rounds, so the per-round shuffle and staging costs
// dominate.
func mkRedistribute() (func() (float64, error), error) {
	const n, procs = 128, 4
	fill := func(gi, gj int) float64 { return float64(gi*n + gj) }
	op := func() (float64, error) {
		fs := iosim.NewMemFS()
		st, err := mp.Run(sim.Delta(procs), func(proc *mp.Proc) error {
			disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
			srcMap, err := dist.NewArray("src", dist.NewCollapsed(n), dist.NewBlock(n, procs))
			if err != nil {
				return err
			}
			src, err := oocarray.New(disk, srcMap, proc.Rank(), proc.Clock(), oocarray.Options{})
			if err != nil {
				return err
			}
			defer src.Close()
			if err := src.FillGlobal(fill); err != nil {
				return err
			}
			dstMap, err := dist.NewArray("dst", dist.NewBlock(n, procs), dist.NewCollapsed(n))
			if err != nil {
				return err
			}
			dst, err := oocarray.New(disk, dstMap, proc.Rank(), proc.Clock(), oocarray.Options{})
			if err != nil {
				return err
			}
			defer dst.Close()
			return oocarray.RedistributeVia(proc, src, dst, 2*n, 100, nil, collio.Direct)
		})
		if err != nil {
			return 0, err
		}
		// Closed and removed, the files' storage serves the next op.
		for _, name := range fs.Names() {
			if err := fs.Remove(name); err != nil {
				return 0, err
			}
		}
		return st.ElapsedSeconds(), nil
	}
	return op, nil
}

// mkParityDiskLoss measures a full parity-protected compiled GAXPY that
// loses a logical disk mid-run and reconstructs it: the XOR
// delta/recover kernels, checksum verification and the retry machinery
// all on the measured path.
func mkParityDiskLoss() (func() (float64, error), error) {
	const n, procs, victim = 64, 4, 1
	mach := sim.Delta(procs)
	cres, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: n, Procs: procs, MemElems: 12 * n, Machine: mach, Force: "column-slab",
	})
	if err != nil {
		return nil, err
	}
	fills := map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}
	pol := iosim.RetryPolicy{MaxRetries: 3, BaseBackoff: 1e-3, MaxBackoff: 4e-3}
	// Probe run: count the victim's operations so the loss lands mid-run.
	counts := make([]int64, procs)
	pr, err := exec.Run(cres.Program, mach, exec.Options{
		Fill: fills, Resilience: iosim.NewResilience(pol), Parity: true, OpCounts: counts,
	})
	if err != nil {
		return nil, err
	}
	pr.Close()
	loss := []mp.Fault{{Rank: victim, Op: counts[victim] / 2, Kind: mp.LoseDisk}}
	op := func() (float64, error) {
		out, err := exec.Run(cres.Program, mach, exec.Options{
			Fill: fills, Resilience: iosim.NewResilience(pol), Parity: true, Faults: loss,
		})
		if err != nil {
			return 0, err
		}
		if len(out.DiskLosses) == 0 {
			return 0, fmt.Errorf("scheduled disk loss never fired")
		}
		sec := out.Stats.ElapsedSeconds()
		out.Close()
		return sec, nil
	}
	return op, nil
}

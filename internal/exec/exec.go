// Package exec interprets compiled node programs (plan.Program) on the
// simulated distributed memory machine: P processor goroutines run the
// program's Body in SPMD style against their out-of-core local arrays,
// performing real file I/O, real message passing and real arithmetic
// while the simulated clocks accumulate the machine-model costs.
package exec

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/parity"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Options configures an execution.
type Options struct {
	// Fill provides initial values for input arrays by name; inputs
	// without an entry start zeroed.
	Fill map[string]func(gi, gj int) float64
	// Runtime passes data sieving / prefetching switches to the
	// out-of-core array runtime.
	Runtime oocarray.Options
	// Phantom executes in accounting-only mode (no file data movement,
	// no arithmetic; identical statistics).
	Phantom bool
	// FS is the backing store; nil means a fresh in-memory file system.
	FS iosim.FS
	// Trace, when non-nil, collects a timeline of typed spans — compute,
	// communication, I/O, retries, parity maintenance — across all
	// processors against the simulated clocks (see trace.Tracer). Spans
	// reconcile exactly with the run's statistics (trace.Reconcile).
	Trace *trace.Tracer
	// Resilience, when non-nil, routes all local array file I/O through
	// the retrying, checksum-verifying disk layer: transient faults are
	// retried with backoff charged to the simulated clocks, and checksum
	// mismatches on reads surface as detected (never silent) corruption.
	// Pass the same Resilience to a later Resume so the checksum store
	// survives the restart.
	Resilience *iosim.Resilience
	// Checkpoint, when non-nil, periodically commits a consistent global
	// checkpoint a failed run can restart from with Resume. It also
	// changes the error-path cleanup: the run's files are kept on disk so
	// the checkpoint stays usable.
	Checkpoint *CheckpointSpec
	// Parity protects every local array file with RAID-5-style rotated
	// XOR parity (internal/parity): a permanently failed or lost file is
	// reconstructed online from the surviving disks and the run finishes
	// in degraded mode, with full redundancy rebuilt before the run is
	// declared complete. Parity maintenance is charged to the simulated
	// clocks and surfaced in the Parity*/Reconstruct* statistics.
	Parity bool
	// Kill schedules injected fail-stop rank deaths: rank Rank stops
	// immediately before its Op'th counted operation (messages and local
	// array chunk I/O). Combine with Checkpoint and Parity under
	// RunResilient to survive the loss.
	Kill []mp.KillSpec
	// Detect enables simulated-clock heartbeat failure detection: an
	// operation blocked on a dead rank resolves to mp.ErrRankDead after
	// the heartbeat timeout and survivors agree on the failed set. Nil
	// leaves rank death to the closed-channel diagnostics (the run still
	// terminates, without typed errors or agreement).
	Detect *mp.Detector
	// StallTimeout overrides the deadlock watchdog's wall-clock quiet
	// period (see mp.Options.StallTimeout).
	StallTimeout time.Duration
	// OpCounts, when non-nil (len >= Procs), receives each rank's final
	// fail-stop operation count; probe runs use it to learn the op-index
	// space a kill schedule can target.
	OpCounts []int64
	// RestoreStats makes Resume restore each rank's simulated clock and
	// statistics counters from the checkpoint manifest and replay the
	// commit barrier, so a resumed run's final statistics are bitwise
	// identical to the uninterrupted run's. It changes nothing on fresh
	// runs, and falls back to plain resume semantics for manifests that
	// predate the stats snapshot.
	RestoreStats bool
	// CkptHook, when non-nil, runs on rank 0 immediately after each
	// checkpoint epoch commits (post-barrier) with the committed epoch
	// number. Chaos and test harnesses use it to crash, cancel or
	// observe a run at a deterministic mid-run boundary.
	CkptHook func(epoch int)
	// Bytecode, when non-nil, executes the program through its compiled
	// opcode stream (internal/bytecode) instead of walking the plan tree:
	// a tight fetch-decode loop over preresolved slots replaces the
	// per-node type switch and name lookups. The stream must have been
	// compiled from this exact program — the fingerprints are verified
	// before the run starts. Execution is semantically identical to the
	// tree walk down to the bit: same I/O, messages, float operation
	// order, checkpoint cursors and trace spans.
	Bytecode *bytecode.Program
}

// mpOptions maps the execution options onto the message-passing
// machine's fault configuration.
func (o Options) mpOptions() mp.Options {
	return mp.Options{Kill: o.Kill, Detect: o.Detect, StallTimeout: o.StallTimeout, OpCounts: o.OpCounts}
}

// failureActive reports whether any fail-stop machinery (kill schedule,
// detection, op counting) is configured; only then are the per-array
// disks' operation hooks installed, keeping plain runs at zero overhead.
func (o Options) failureActive() bool {
	return len(o.Kill) > 0 || o.Detect != nil || o.OpCounts != nil
}

// Result is a completed execution.
type Result struct {
	Stats   *trace.Stats
	Program *plan.Program
	// PerArray holds per-processor, per-array I/O statistics: indexed by
	// rank, then by array name. It lets the Equations 3-6 counts be
	// checked on compiled programs, not just the hand-coded baselines.
	PerArray []map[string]*trace.IOStats

	fs      iosim.FS
	mach    sim.Config
	phantom bool
	res     *iosim.Resilience
	ckpt    *CheckpointSpec
	pstore  *parity.Store
}

// ParityStore returns the run's parity store (nil when Options.Parity was
// off); callers use it to inspect degraded-mode state.
func (r *Result) ParityStore() *parity.Store { return r.pstore }

// Close removes the run's local array files (and checkpoint artifacts, if
// any) from the backing store. Call it when the result's file contents
// are no longer needed; ReadArray stops working afterwards. A non-nil
// error joins every checkpoint-GC failure that was not a missing file, so
// leaked stale snapshots are visible to the caller.
func (r *Result) Close() error {
	removeRunFiles(r.fs, r.Program)
	if r.pstore != nil {
		r.pstore.Close()
	}
	return removeCheckpointFiles(r.fs, r.Program, r.ckpt)
}

// removeRunFiles deletes every local array file the program creates,
// ignoring missing files (error-path and Close cleanup).
func removeRunFiles(fs iosim.FS, p *plan.Program) {
	for _, spec := range p.Arrays {
		for proc := 0; proc < p.Procs; proc++ {
			fs.Remove(fmt.Sprintf("%s.p%d.laf", spec.Name, proc))
		}
	}
}

// MaxArrayIO returns, for the named array, the elementwise maximum of the
// per-processor I/O statistics — the paper's per-processor metrics on a
// balanced program.
func (r *Result) MaxArrayIO(name string) trace.IOStats {
	s := trace.NewStats(len(r.PerArray))
	for i, m := range r.PerArray {
		if st := m[name]; st != nil {
			s.Procs[i].IO = *st
		}
	}
	return s.MaxIO()
}

// reduceTag is the tag used by SumStore reductions.
const reduceTag = 11

// redistTag is the tag used by collective redistributions.
const redistTag = 12

// parityTag is the tag used by the collective parity rebuild barriers.
const parityTag = 14

// Run executes the program on a machine with the program's processor
// count.
func Run(p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	return RunCtx(context.Background(), p, mach, opts)
}

// RunCtx is Run under a context: a cancelled or expired context stops
// every processor at its next plan-node boundary, the run unwinds like
// any other failed attempt (files removed unless checkpointed, slab
// buffers returned to the arena), and the returned error wraps
// ctx.Err(). The check is one non-blocking receive on ctx.Done(), taken
// once per run (see interp.cancelled): free only for a context that can
// never be cancelled, whose Done is nil, and lock-free for any other.
func RunCtx(ctx context.Context, p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	res, err := run(ctx, p, mach, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Resume restarts a killed or failed checkpointed run from its last
// globally consistent checkpoint. Options must name the original backing
// FS and the same CheckpointSpec; pass the original Resilience too so
// the checksum store carries over. It returns ErrNoCheckpoint (wrapped)
// when no complete checkpoint epoch exists.
func Resume(p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	return ResumeCtx(context.Background(), p, mach, opts)
}

// ResumeCtx is Resume under a context, with RunCtx's cancellation
// semantics. The serving layer uses it to resume journaled jobs that
// were RUNNING at crash time without losing per-job deadlines.
func ResumeCtx(ctx context.Context, p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	if opts.Checkpoint == nil {
		return nil, fmt.Errorf("exec: Resume requires Options.Checkpoint")
	}
	if opts.FS == nil {
		return nil, fmt.Errorf("exec: Resume requires the original Options.FS")
	}
	manifests, err := loadResumeManifests(opts.FS, opts.Checkpoint, p.Procs)
	if err != nil {
		return nil, err
	}
	res, err := run(ctx, p, mach, opts, manifests, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run executes the program, optionally restarting every processor from
// its entry in resume (indexed by rank; nil means a fresh run).
// respawned lists ranks restarted after a fail-stop loss — they record a
// respawn instant at attempt start. On failure the partial Result (with
// the attempt's statistics) is returned alongside the error so the
// recovery loop can report and reconcile aborted attempts; the exported
// entry points discard it.
func run(ctx context.Context, p *plan.Program, mach sim.Config, opts Options, resume []*ckptManifest, respawned []int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Bytecode != nil {
		// Verify once, before any rank starts: a stream compiled from a
		// different program would execute the wrong access pattern
		// against this program's arrays.
		if fp := plan.Fingerprint(p, nil); fp != opts.Bytecode.Fingerprint {
			return nil, fmt.Errorf("exec: bytecode fingerprint %s does not match plan fingerprint %s",
				opts.Bytecode.Fingerprint, fp)
		}
	}
	mach.Procs = p.Procs
	fs := opts.FS
	if fs == nil {
		fs = iosim.NewMemFS()
	}
	var pstore *parity.Store
	if opts.Parity {
		pstore = parity.NewStore(fs, mach, p.Procs, opts.Resilience)
		pstore.SetPhantom(opts.Phantom)
		for _, spec := range p.Arrays {
			pstore.Protect(spec.Name)
		}
	}
	// One mapping per array for the whole run: they are read-only, and
	// the routing tables a mapping caches (dist.Tables2) are then built
	// once per run rather than once per rank.
	dmaps := make([]*dist.Array, len(p.Arrays))
	for i, spec := range p.Arrays {
		dm, err := spec.DistArray(p.Procs)
		if err != nil {
			return nil, err
		}
		dmaps[i] = dm
	}
	perArray := make([]map[string]*trace.IOStats, mach.Procs)
	stats, err := mp.RunOpts(mach, opts.mpOptions(), func(proc *mp.Proc) error {
		proc.SetTracer(opts.Trace.Rank(proc.Rank()))
		for _, r := range respawned {
			if r == proc.Rank() {
				// This rank was lost last attempt and has been respawned:
				// mark the restart so recovery counters reconcile.
				proc.Stats().Comm.Respawns++
				if tr := proc.Tracer(); tr != nil {
					tr.Emit(trace.Span{Kind: trace.KindRespawn, Start: proc.Clock().Seconds()})
				}
			}
		}
		if pstore != nil {
			pstore.SetCommSink(proc.Rank(), &proc.Stats().Comm)
		}
		var man *ckptManifest
		if resume != nil {
			man = resume[proc.Rank()]
		}
		in := newInterp(ctx, p, proc, fs, opts, pstore, dmaps)
		perArray[proc.Rank()] = in.perArray
		// Runs last (defers are LIFO): whatever path the run leaves by —
		// success, cancellation, fault abort, plan-bug panic — the slab
		// buffers the interpreter still holds go back to the arena.
		defer in.releaseBufs()
		// Fold the per-array statistics into the processor total, in
		// sorted-key order so the float sums are reproducible (and match
		// the span replay's fold, which uses the same order). The success
		// path folds at the end of the body; an aborted rank (killed, or
		// unwinding on a peer's death) folds in this handler instead, so
		// even a failed attempt's spans and counters reconcile.
		folded := false
		fold := func() {
			if folded {
				return
			}
			folded = true
			io := &proc.Stats().IO
			names := make([]string, 0, len(in.perArray))
			for name := range in.perArray {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				io.Add(*in.perArray[name])
			}
		}
		defer func() {
			if proc.Aborted() {
				fold()
			}
		}()
		// A dead or aborting rank is fail-stop: it must not flush
		// write-behind buffers or touch its files during the unwind.
		defer func() {
			if !proc.Aborted() {
				in.close()
			}
		}()
		if err := in.initArrays(opts, man); err != nil {
			return err
		}
		startNode, startIter := 0, 0
		if man != nil {
			startNode, startIter = man.NodeIdx, man.Iter
		}
		if man != nil {
			// Resuming attaches to pre-existing local array files whose
			// parity may be stale (the crash can have interrupted a
			// read-modify-write); rebuild redundancy before computing.
			if err := in.paritySync(); err != nil {
				return err
			}
			if in.statsRestored {
				// The restored state is pre-commit-barrier; replay the
				// barrier so the clocks synchronize exactly as the
				// original run's did at this epoch's commit.
				proc.Barrier(ckptTag)
			}
		}
		if opts.Bytecode != nil {
			if err := in.runBytecode(opts.Bytecode, startNode, startIter); err != nil {
				return err
			}
		} else if err := in.runTop(p.Body, startNode, startIter); err != nil {
			return err
		}
		// A degraded run (lost parity during a fault) must restore full
		// redundancy before the run is declared complete.
		if err := in.paritySync(); err != nil {
			return err
		}
		fold()
		return nil
	})
	res := &Result{Stats: stats, Program: p, PerArray: perArray, fs: fs, mach: mach,
		phantom: opts.Phantom, res: opts.Resilience, ckpt: opts.Checkpoint, pstore: pstore}
	if err != nil {
		// Without a checkpoint there is nothing to resume from, so a
		// failed run must not leave local array files behind; with one,
		// the files (and the parity protecting them) are the restart
		// state: keep them, releasing only the store's cached handles.
		if opts.Checkpoint == nil {
			removeRunFiles(fs, p)
			if pstore != nil {
				pstore.Close()
			}
		} else if pstore != nil {
			pstore.Detach()
		}
		return res, fmt.Errorf("exec: %w", err)
	}
	return res, nil
}

// ReadArray assembles the named array's global contents from the local
// array files (verification helper; unaccounted).
func (r *Result) ReadArray(name string) (*matrix.Matrix, error) {
	if r.phantom {
		return nil, fmt.Errorf("exec: cannot read arrays from a phantom run")
	}
	spec, ok := r.Program.Array(name)
	if !ok {
		return nil, fmt.Errorf("exec: unknown array %q", name)
	}
	dm, err := spec.DistArray(r.Program.Procs)
	if err != nil {
		return nil, err
	}
	out := matrix.New(spec.Rows, spec.Cols)
	for proc := 0; proc < r.Program.Procs; proc++ {
		disk := iosim.NewResilientDisk(r.fs, r.mach, nil, r.res)
		if r.pstore != nil {
			disk.SetParity(r.pstore)
		}
		laf, err := disk.OpenLAF(fmt.Sprintf("%s.p%d.laf", name, proc), int64(dm.LocalElems(proc)))
		if err != nil {
			return nil, err
		}
		data, _, err := laf.ReadAll()
		laf.Close()
		if err != nil {
			return nil, err
		}
		shape := dm.LocalShape(proc)
		rows, cols := shape[0], shape[1]
		for lj := 0; lj < cols; lj++ {
			gj := dm.Dims[1].ToGlobal(dm.ProcCoord(proc, 1), lj)
			for li := 0; li < rows; li++ {
				gi := dm.Dims[0].ToGlobal(dm.ProcCoord(proc, 0), li)
				out.Set(gi, gj, data[lj*rows+li])
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Interpreter

type interp struct {
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(), captured once; see cancelled
	prog    *plan.Program
	dmaps   []*dist.Array // mapping of prog.Arrays[i], shared by all ranks
	proc    *mp.Proc
	phantom bool
	fs      iosim.FS
	res     *iosim.Resilience
	pstore  *parity.Store

	// ckptSpec/ckptEpoch drive checkpointing; ckptSpec is nil when
	// checkpointing is off. ckptHook observes committed epochs on rank 0;
	// restoreStats requests exact clock/counter restoration on resume and
	// statsRestored records that it actually happened (the manifest
	// carried a stats snapshot).
	ckptSpec      *CheckpointSpec
	ckptEpoch     int
	ckptHook      func(epoch int)
	restoreStats  bool
	statsRestored bool

	arrays    map[string]*oocarray.Array
	slabbings map[string]oocarray.Slabbing
	vars      map[string]int
	bufs      map[string]*oocarray.ICLA
	vecs      map[string][]float64

	// staging holds each output array's current staging buffer; autoIdx
	// tracks the counter-driven slab index for AutoStage arrays (-1 when
	// none is active).
	staging map[string]*oocarray.ICLA
	auto    map[string]bool
	autoIdx map[string]int

	// counter is the implicit global column counter of SumStore.
	counter int

	// readers caches a SlabReader per Stream-marked ReadSlab node, so
	// sequential scans can be prefetched; readerNext tracks the slab
	// index each reader will deliver.
	readers    map[*plan.ReadSlab]*oocarray.SlabReader
	readerNext map[*plan.ReadSlab]int

	// perArray attributes I/O statistics to individual arrays.
	perArray map[string]*trace.IOStats

	// writers holds per-array write-behind pipelines when
	// Options.Runtime.WriteBehind is set.
	writers map[string]*oocarray.SlabWriter

	// bce is the bytecode executor when the run dispatches through a
	// compiled opcode stream (Options.Bytecode); releaseBufs drains its
	// slot tables alongside the interpreter's maps.
	bce *bcExec
}

// newInterp builds the interpreter shell; initArrays creates the arrays.
// The split lets the node closure register the per-array statistics map
// before any I/O happens, so even a rank killed during array fill leaves
// reconcilable statistics behind.
func newInterp(ctx context.Context, p *plan.Program, proc *mp.Proc, fs iosim.FS, opts Options, pstore *parity.Store, dmaps []*dist.Array) *interp {
	return &interp{
		ctx:          ctx,
		done:         ctx.Done(),
		prog:         p,
		dmaps:        dmaps,
		proc:         proc,
		phantom:      opts.Phantom,
		fs:           fs,
		res:          opts.Resilience,
		pstore:       pstore,
		ckptSpec:     opts.Checkpoint,
		ckptHook:     opts.CkptHook,
		restoreStats: opts.RestoreStats,
		arrays:       make(map[string]*oocarray.Array),
		slabbings:    make(map[string]oocarray.Slabbing),
		vars:         make(map[string]int),
		bufs:         make(map[string]*oocarray.ICLA),
		vecs:         make(map[string][]float64),
		staging:      make(map[string]*oocarray.ICLA),
		auto:         make(map[string]bool),
		autoIdx:      make(map[string]int),
		readers:      make(map[*plan.ReadSlab]*oocarray.SlabReader),
		readerNext:   make(map[*plan.ReadSlab]int),
		perArray:     make(map[string]*trace.IOStats),
	}
}

// initArrays creates (or, on resume, reattaches to) the rank's local
// array files and fills input arrays. When fault injection is active the
// array disks feed the processor's op counter, so kills can land between
// I/O operations exactly as they can between message operations.
func (in *interp) initArrays(opts Options, resume *ckptManifest) error {
	p, proc, fs, pstore := in.prog, in.proc, in.fs, in.pstore
	for i, spec := range p.Arrays {
		dm := in.dmaps[i]
		arrStats := &trace.IOStats{}
		in.perArray[spec.Name] = arrStats
		disk := iosim.NewResilientDisk(fs, proc.Config(), arrStats, opts.Resilience)
		disk.SetPhantom(opts.Phantom)
		disk.SetTracer(proc.Tracer(), proc.Clock(), spec.Name)
		if opts.failureActive() {
			disk.SetOpHook(proc.StepOp)
		}
		if pstore != nil {
			disk.SetParity(pstore)
		}
		var arr *oocarray.Array
		var err error
		if resume != nil {
			// Resuming: the local array files already exist; attach to
			// them without truncation (their contents are rebuilt from
			// the checkpoint snapshots below).
			arr, err = oocarray.Open(disk, dm, proc.Rank(), proc.Clock(), opts.Runtime)
		} else {
			arr, err = oocarray.New(disk, dm, proc.Rank(), proc.Clock(), opts.Runtime)
		}
		if err != nil {
			return err
		}
		in.arrays[spec.Name] = arr
		in.slabbings[spec.Name] = arr.Slabbing(spec.SlabDim, spec.SlabElems)
		if opts.Runtime.WriteBehind {
			if in.writers == nil {
				in.writers = make(map[string]*oocarray.SlabWriter)
			}
			in.writers[spec.Name] = arr.NewSlabWriter()
		}
		if spec.Role == plan.In && !opts.Phantom && resume == nil {
			if fill, ok := opts.Fill[spec.Name]; ok {
				if err := arr.FillGlobal(fill); err != nil {
					return err
				}
			}
		}
	}
	if resume != nil {
		if err := in.restoreFromManifest(resume); err != nil {
			return err
		}
	}
	return nil
}

// parityStatsKey is the perArray key that collects the I/O charged to
// collective parity rebuilds (it is folded into the processor totals like
// any per-array entry).
const parityStatsKey = "(parity)"

// paritySync is a collective that restores full redundancy: if any parity
// group went out of sync (degraded writes, a reconstructed disk's own
// parity file, or a resumed run attaching to files with untrusted
// parity), every rank rebuilds the parity files its logical disk hosts.
// Barriers bracket the rebuild so no rank races a reconstruction against
// a half-rebuilt parity file, and the dirty flags are cleared only once
// every rank has finished.
func (in *interp) paritySync() error {
	if in.pstore == nil {
		return nil
	}
	in.proc.Barrier(parityTag)
	var err error
	if in.pstore.Dirty() {
		st := in.perArray[parityStatsKey]
		if st == nil {
			st = &trace.IOStats{}
			in.perArray[parityStatsKey] = st
		}
		disk := iosim.NewResilientDisk(in.fs, in.proc.Config(), st, in.res)
		disk.SetPhantom(in.phantom)
		disk.SetTracer(in.proc.Tracer(), in.proc.Clock(), parityStatsKey)
		start := in.proc.Clock().Seconds()
		var sec float64
		sec, err = in.pstore.RebuildRank(disk, in.proc.Rank())
		in.proc.Clock().Advance(sec)
		st.Seconds += sec
		if tr := in.proc.Tracer(); tr != nil {
			tr.Emit(trace.Span{Kind: trace.KindParitySync, Label: parityStatsKey, Start: start, Dur: sec})
		}
	}
	in.proc.Barrier(parityTag)
	if err != nil {
		return err
	}
	in.pstore.ClearDirty()
	return nil
}

func (in *interp) close() {
	for _, w := range in.writers {
		w.Flush()
	}
	for _, a := range in.arrays {
		a.Close()
	}
}

// runTop executes the program's top-level body from the cursor
// (startNode, startIter), committing checkpoints at eligible boundaries
// when checkpointing is on. startIter only applies to the loop at
// startNode (per-iteration cursors are recorded only for SumStore loops).
func (in *interp) runTop(body []plan.Node, startNode, startIter int) error {
	if in.ckptSpec != nil && startNode == 0 && startIter == 0 && !in.statsRestored {
		// Commit an initial checkpoint at cursor (0,0) so even a program
		// whose body is a single non-loop node (e.g. one Redistribute) has
		// an epoch to resume from if it crashes mid-node. A stats-exact
		// resume at cursor (0,0) skips the re-commit: the uninterrupted
		// run checkpointed here exactly once, and an extra barrier would
		// shift the restored clocks.
		if err := in.doCheckpoint(0, 0); err != nil {
			return err
		}
	}
	for i := startNode; i < len(body); i++ {
		nodeStart := in.proc.Clock().Seconds()
		loop, isLoop := body[i].(*plan.Loop)
		first := 0
		if i == startNode {
			first = startIter
		}
		if isLoop && in.ckptSpec != nil && plan.HasSumStore(loop.Body) {
			// Iterate here instead of in run() so a checkpoint with
			// cursor (i, v) can be committed between iterations. The
			// SumStore restriction makes the trip count globally
			// uniform, so the checkpoint barrier is collective-safe.
			count, err := in.count(loop.Count)
			if err != nil {
				return err
			}
			every := in.ckptSpec.every()
			for v := first; v < count; v++ {
				if v != first && v%every == 0 {
					if err := in.doCheckpoint(i, v); err != nil {
						return err
					}
				}
				in.vars[loop.Var] = v
				if err := in.runBody(loop.Body); err != nil {
					return err
				}
			}
			delete(in.vars, loop.Var)
		} else if isLoop && first > 0 {
			// Resuming into a loop checkpointed only at its boundary
			// cannot happen (per-iteration cursors are only recorded for
			// SumStore loops), but guard against a foreign manifest.
			return fmt.Errorf("exec: checkpoint cursor (%d,%d) points into a non-resumable loop", i, first)
		} else {
			if err := in.run(body[i]); err != nil {
				return err
			}
		}
		if tr := in.proc.Tracer(); tr != nil {
			if end := in.proc.Clock().Seconds(); end > nodeStart {
				tr.Emit(trace.Span{Kind: trace.KindNode, Label: nodeLabel(body[i]),
					Start: nodeStart, Dur: end - nodeStart, N: int64(i)})
			}
		}
		if in.ckptSpec != nil && i+1 < len(body) {
			if err := in.doCheckpoint(i+1, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// nodeLabel names a plan node for the trace overlay track.
func nodeLabel(n plan.Node) string { return plan.NodeLabel(n) }

func (in *interp) runBody(body []plan.Node) error {
	for _, n := range body {
		if err := in.run(n); err != nil {
			return err
		}
	}
	return nil
}

// cancelled is the op-boundary cancellation check shared by the tree
// walk and the bytecode loop: one non-blocking receive on the run's done
// channel. It touches no shared lock — a receive on an open, empty
// channel is two atomic loads, and on the nil channel of a
// non-cancellable context (context.Background, the plain path the
// wallbench gates pin) it returns at once. ctx.Err() must not be polled
// here instead: on a cancellable context it takes the context's mutex,
// one lock shared by all P rank goroutines at every instruction, which
// was half the host time of a served GAXPY. Err is consulted only after
// done has closed, when it is guaranteed non-nil.
func (in *interp) cancelled() error {
	select {
	case <-in.done:
		return in.cancelErr()
	default:
		return nil
	}
}

// cancelErr is cancelled's slow path, split out so the check inlines.
func (in *interp) cancelErr() error {
	return fmt.Errorf("cancelled at op boundary: %w", in.ctx.Err())
}

func (in *interp) run(n plan.Node) error {
	// Every plan node is an op boundary: a cancelled or expired context
	// stops the rank here, before the node's I/O or communication.
	if err := in.cancelled(); err != nil {
		return err
	}
	switch n := n.(type) {
	case *plan.Loop:
		count, err := in.count(n.Count)
		if err != nil {
			return err
		}
		for v := 0; v < count; v++ {
			in.vars[n.Var] = v
			if err := in.runBody(n.Body); err != nil {
				return err
			}
		}
		delete(in.vars, n.Var)
		return nil

	case *plan.ReadSlab:
		arr, err := in.array(n.Array)
		if err != nil {
			return err
		}
		idx, ok := in.vars[n.Index]
		if !ok {
			return fmt.Errorf("exec: ReadSlab index %q is not a live loop variable", n.Index)
		}
		icla, err := in.readSlab(n, arr, idx)
		if err != nil {
			return err
		}
		old := in.bufs[n.Buf]
		in.bufs[n.Buf] = icla
		in.recycle(arr, old)
		return nil

	case *plan.NewStaging:
		arr, err := in.array(n.Array)
		if err != nil {
			return err
		}
		like, ok := in.bufs[n.RowsLike]
		if !ok {
			return fmt.Errorf("exec: NewStaging rows-like buffer %q not read yet", n.RowsLike)
		}
		s := &oocarray.ICLA{
			RowOff: like.RowOff, ColOff: 0,
			Rows: like.Rows, Cols: arr.LocalCols(),
			Data: bufpool.GetF64(like.Rows * arr.LocalCols()),
		}
		clear(s.Data)
		oldStage := in.staging[n.Array]
		oldBuf := in.bufs[n.Buf]
		in.staging[n.Array] = s
		in.bufs[n.Buf] = s
		in.recycle(arr, oldStage)
		in.recycle(arr, oldBuf)
		return nil

	case *plan.AutoStage:
		in.auto[n.Array] = true
		in.autoIdx[n.Array] = -1
		return nil

	case *plan.FlushStage:
		return in.flushStage(n.Array)

	case *plan.WriteBuf:
		arr, err := in.array(n.Array)
		if err != nil {
			return err
		}
		buf, ok := in.bufs[n.Buf]
		if !ok {
			return fmt.Errorf("exec: WriteBuf of unknown buffer %q", n.Buf)
		}
		if w := in.writers[n.Array]; w != nil {
			return w.Write(buf)
		}
		return arr.WriteSection(buf)

	case *plan.ZeroVec:
		rows, err := in.vecRows(n)
		if err != nil {
			return err
		}
		v := in.vecs[n.Vec]
		if len(v) != rows {
			v = make([]float64, rows)
			in.vecs[n.Vec] = v
		} else if !in.phantom {
			for i := range v {
				v[i] = 0
			}
		}
		return nil

	case *plan.Axpy:
		return in.axpy(n)

	case *plan.SumStore:
		return in.sumStore(n)

	case *plan.ResetCounter:
		in.counter = 0
		return nil

	case *plan.NewSlab:
		return in.runNewSlab(n)

	case *plan.Ewise:
		return in.runEwise(n)

	case *plan.ShiftEwise:
		return in.runShiftEwise(n)

	case *plan.Redistribute:
		return in.runRedistribute(n)

	default:
		return fmt.Errorf("exec: unknown node %T", n)
	}
}

// runRedistribute executes a collective redistribution through the
// two-phase I/O layer, with the write strategy the cost model chose.
func (in *interp) runRedistribute(n *plan.Redistribute) error {
	src, err := in.array(n.Src)
	if err != nil {
		return err
	}
	dst, err := in.array(n.Dst)
	if err != nil {
		return err
	}
	method, err := collio.ParseMethod(n.Method)
	if err != nil {
		return err
	}
	var transform func(gi, gj int) (int, int)
	if n.Transpose {
		transform = func(gi, gj int) (int, int) { return gj, gi }
	}
	return oocarray.RedistributeVia(in.proc, src, dst, n.MemElems, redistTag, transform, method)
}

// readSlab fetches one slab, going through a prefetch-capable reader for
// Stream-marked sequential scans and falling back to a direct read
// otherwise.
func (in *interp) readSlab(n *plan.ReadSlab, arr *oocarray.Array, idx int) (*oocarray.ICLA, error) {
	if !n.Stream {
		return arr.ReadSlab(in.slabbings[n.Array], idx)
	}
	r := in.readers[n]
	if idx == 0 {
		if r == nil {
			r = arr.NewSlabReader(in.slabbings[n.Array])
			in.readers[n] = r
		} else {
			r.Reset()
		}
		in.readerNext[n] = 0
	}
	if r == nil || in.readerNext[n] != idx {
		// The scan hypothesis does not hold at runtime; stay correct
		// with a direct read.
		return arr.ReadSlab(in.slabbings[n.Array], idx)
	}
	icla, ok, err := r.Next()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("exec: stream reader for %q exhausted at slab %d", n.Array, idx)
	}
	in.readerNext[n] = idx + 1
	return icla, nil
}

func (in *interp) array(name string) (*oocarray.Array, error) {
	a, ok := in.arrays[name]
	if !ok {
		return nil, fmt.Errorf("exec: unknown array %q", name)
	}
	return a, nil
}

func (in *interp) count(c plan.CountExpr) (int, error) {
	switch {
	case c.SlabsOf != "":
		s, ok := in.slabbings[c.SlabsOf]
		if !ok {
			return 0, fmt.Errorf("exec: slabs of unknown array %q", c.SlabsOf)
		}
		return s.Count, nil
	case c.ColsOf != "":
		b, ok := in.bufs[c.ColsOf]
		if !ok {
			return 0, fmt.Errorf("exec: cols of unread buffer %q", c.ColsOf)
		}
		return b.Cols, nil
	default:
		return c.Lit, nil
	}
}

func (in *interp) vecRows(n *plan.ZeroVec) (int, error) {
	if n.RowsLike != "" {
		b, ok := in.bufs[n.RowsLike]
		if !ok {
			return 0, fmt.Errorf("exec: ZeroVec rows-like buffer %q not read yet", n.RowsLike)
		}
		return b.Rows, nil
	}
	arr, err := in.array(n.RowsOfArray)
	if err != nil {
		return 0, err
	}
	return arr.LocalRows(), nil
}

func (in *interp) axpy(n *plan.Axpy) error {
	vec, ok := in.vecs[n.Vec]
	if !ok {
		return fmt.Errorf("exec: Axpy into unallocated vector %q", n.Vec)
	}
	a, ok := in.bufs[n.A]
	if !ok {
		return fmt.Errorf("exec: Axpy reads unread buffer %q", n.A)
	}
	b, ok := in.bufs[n.B]
	if !ok {
		return fmt.Errorf("exec: Axpy reads unread buffer %q", n.B)
	}
	aCol, ok := in.vars[n.ACol]
	if !ok {
		return fmt.Errorf("exec: Axpy column variable %q not live", n.ACol)
	}
	bCol, ok := in.vars[n.BCol]
	if !ok {
		return fmt.Errorf("exec: Axpy column variable %q not live", n.BCol)
	}
	row := 0
	if n.BRowBase != "" {
		base, ok := in.vars[n.BRowBase]
		if !ok {
			return fmt.Errorf("exec: Axpy row variable %q not live", n.BRowBase)
		}
		scale := 1
		if n.BRowScale != "" {
			s, ok := in.slabbings[n.BRowScale]
			if !ok {
				return fmt.Errorf("exec: Axpy slab width of unknown array %q", n.BRowScale)
			}
			scale = s.Width
		}
		row = base * scale
	}
	if n.BRowPlus != "" {
		plus, ok := in.vars[n.BRowPlus]
		if !ok {
			return fmt.Errorf("exec: Axpy row variable %q not live", n.BRowPlus)
		}
		row += plus
	}
	if a.Rows != len(vec) {
		return fmt.Errorf("exec: Axpy shape mismatch: vector %d vs slab rows %d", len(vec), a.Rows)
	}
	if !in.phantom {
		col := a.Col(aCol)
		bval := b.At(row, bCol)
		for i, v := range col {
			vec[i] += bval * v
		}
	}
	in.proc.Compute(2 * int64(a.Rows))
	return nil
}

func (in *interp) sumStore(n *plan.SumStore) error {
	vec, ok := in.vecs[n.Vec]
	if !ok {
		return fmt.Errorf("exec: SumStore of unallocated vector %q", n.Vec)
	}
	arr, err := in.array(n.Array)
	if err != nil {
		return err
	}
	gj := in.counter
	in.counter++
	owner := arr.Dist().Dims[1].Owner(gj)
	mine := owner == in.proc.Rank()

	// The owner positions its (auto) staging slab before the reduction.
	if mine && in.auto[n.Array] {
		_, local := arr.Dist().Dims[1].ToLocal(gj)
		slb := in.slabbings[n.Array]
		idx := local / slb.Width
		if idx != in.autoIdx[n.Array] {
			if err := in.flushStage(n.Array); err != nil {
				return err
			}
			s, err := arr.NewSlab(slb, idx)
			if err != nil {
				return err
			}
			in.staging[n.Array] = s
			in.autoIdx[n.Array] = idx
		}
	}

	sum := in.proc.Reduce(owner, reduceTag, vec)
	if !mine {
		return nil
	}
	s := in.staging[n.Array]
	if s == nil {
		return fmt.Errorf("exec: SumStore into %q with no staging buffer", n.Array)
	}
	_, local := arr.Dist().Dims[1].ToLocal(gj)
	lj := local - s.ColOff
	if lj < 0 || lj >= s.Cols {
		return fmt.Errorf("exec: SumStore column %d outside staging [%d,+%d)", gj, s.ColOff, s.Cols)
	}
	if len(sum) != s.Rows {
		return fmt.Errorf("exec: SumStore length %d vs staging rows %d", len(sum), s.Rows)
	}
	copy(s.Col(lj), sum)
	mp.ReleaseBuf(sum)
	return nil
}

func (in *interp) flushStage(name string) error {
	s := in.staging[name]
	if s == nil {
		return nil
	}
	arr, err := in.array(name)
	if err != nil {
		return err
	}
	if w := in.writers[name]; w != nil {
		if err := w.Write(s); err != nil {
			return err
		}
	} else if err := arr.WriteSection(s); err != nil {
		return err
	}
	in.staging[name] = nil
	in.recycle(arr, s)
	return nil
}

// recycle returns a slab buffer to the arena once no binding references
// it anymore. Both interpreter tables are small (a handful of named
// buffers), so the alias scan costs nothing next to the slab I/O it
// follows.
func (in *interp) recycle(arr *oocarray.Array, s *oocarray.ICLA) {
	if s == nil {
		return
	}
	for _, b := range in.bufs {
		if b == s {
			return
		}
	}
	for _, b := range in.staging {
		if b == s {
			return
		}
	}
	arr.Recycle(s)
}

// releaseBufs returns every slab buffer the interpreter still holds —
// named ICLAs, staging slabs, prefetched-but-undelivered reader slabs —
// to the arena. It runs on every exit path (success, cancellation,
// fault abort), so a checked-mode Gets/Puts balance holds across a
// whole run, not just across the collective layers. Tables can alias
// one ICLA; the seen set guarantees a single release.
func (in *interp) releaseBufs() {
	seen := make(map[*oocarray.ICLA]bool, len(in.bufs)+len(in.staging))
	rel := func(s *oocarray.ICLA) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		if s.Data != nil {
			bufpool.PutF64(s.Data)
			s.Data = nil
		}
	}
	for _, s := range in.bufs {
		rel(s)
	}
	for _, s := range in.staging {
		rel(s)
	}
	for _, r := range in.readers {
		r.Close()
	}
	if b := in.bce; b != nil {
		for _, s := range b.bufs {
			rel(s)
		}
		for _, s := range b.staging {
			rel(s)
		}
		for _, r := range b.readers {
			if r != nil {
				r.Close()
			}
		}
	}
}

// Package exec executes compiled node programs (plan.Program) on the
// simulated distributed memory machine. Every run first lowers the
// program to its flat opcode stream (internal/bytecode); P processor
// goroutines then execute that one stream in SPMD style against their
// out-of-core local arrays, performing real file I/O, real message
// passing and real arithmetic while the simulated clocks accumulate the
// machine-model costs.
package exec

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/bytecode"
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
}

// mpOptions maps the execution options onto the message-passing
// machine's fault configuration.
func (o Options) mpOptions() mp.Options {
	return mp.Options{Kill: o.Kill, StallTimeout: o.StallTimeout, OpCounts: o.OpCounts}
}

// failureActive reports whether any fail-stop machinery (kill schedule,
// op counting) is configured; only then are the per-array
// disks' operation hooks installed, keeping plain runs at zero overhead.
func (o Options) failureActive() bool {
	return len(o.Kill) > 0 || o.OpCounts != nil
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
	// mutated names the arrays the program writes — the ones whose
	// checkpoint snapshots Close has to remove.
	mutated []string
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
	return removeCheckpointFiles(r.fs, r.Program.Procs, r.mutated, r.ckpt)
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
// every processor before its next instruction (every opcode of the
// lowered stream is a boundary — a superset of the plan-node boundaries,
// since loop control and node markers are instructions too), the run
// unwinds like any other failed attempt (files removed unless
// checkpointed, slab buffers returned to the arena), and the returned
// error wraps ctx.Err(). The check is one non-blocking receive on
// ctx.Done(), taken once per run (see interp.cancelled): free only for a
// context that can never be cancelled, whose Done is nil, and lock-free
// for any other.
//
// A program the lowering rejects (a buffer read before any definition, a
// dead loop variable, an unknown array) fails with an "exec: lower: ..."
// error before any file is created or processor started.
func RunCtx(ctx context.Context, p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	rr, err := lowerAndRun(ctx, p, mach, opts, Start{})
	if err != nil {
		return nil, err
	}
	return rr.Result, nil
}

// Lowered is a program lowered to the opcode stream its runs execute,
// with the set of arrays it writes. It is immutable, so any number of
// runs, concurrent ones included, can share one; a serving plan cache
// holds one per entry and lowers each plan once.
type Lowered struct {
	prog    *plan.Program
	code    *bytecode.Program
	mutated writeSet
}

// Lower lowers p. A program the lowering rejects (a buffer read before
// any definition, a dead loop variable, an unknown array) fails with an
// "exec: lower: ..." error; every entry point lowers first, so such a
// program fails before any file or processor exists.
func Lower(p *plan.Program) (*Lowered, error) {
	code, err := bytecode.Compile(p)
	if err != nil {
		return nil, fmt.Errorf("exec: lower: %w", err)
	}
	return &Lowered{prog: p, code: code, mutated: mutatedArrays(code)}, nil
}

// Start says how RunLowered starts a lowered program. The zero value is a
// fresh run, as RunCtx.
type Start struct {
	// Resume restarts from the last globally consistent checkpoint, as
	// ResumeCtx.
	Resume bool
	// Resilient survives up to MaxRecoveries fail-stop rank losses, as
	// RunResilientCtx; with Resume, its first attempt resumes.
	Resilient     bool
	MaxRecoveries int
}

// RunLowered runs an already-lowered program, the one path under RunCtx,
// ResumeCtx and RunResilientCtx, which lower and then call it. Without
// Start.Resilient the result has one attempt and no recoveries.
func RunLowered(ctx context.Context, l *Lowered, mach sim.Config, opts Options, start Start) (*ResilientResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var manifests []*ckptManifest
	if start.Resume {
		if opts.Checkpoint == nil {
			return nil, fmt.Errorf("exec: Resume requires Options.Checkpoint")
		}
		if opts.FS == nil {
			return nil, fmt.Errorf("exec: Resume requires the original Options.FS")
		}
		var err error
		if manifests, err = loadResumeManifests(opts.FS, opts.Checkpoint, l.prog.Procs); err != nil {
			return nil, err
		}
	}
	if start.Resilient {
		return runResilient(ctx, l, mach, opts, start.MaxRecoveries, manifests)
	}
	res, err := run(ctx, l, mach, opts, manifests, nil)
	if err != nil {
		return nil, err
	}
	return &ResilientResult{Result: res, Attempts: 1, Trace: opts.Trace}, nil
}

// lowerAndRun is every plan-taking entry point: lower, then RunLowered.
func lowerAndRun(ctx context.Context, p *plan.Program, mach sim.Config, opts Options, start Start) (*ResilientResult, error) {
	l, err := Lower(p)
	if err != nil {
		return nil, err
	}
	return RunLowered(ctx, l, mach, opts, start)
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
// semantics. The serving layer resumes journaled jobs that were RUNNING
// at crash time the same way, through RunLowered with Start.Resume, so
// they keep their per-job deadlines.
func ResumeCtx(ctx context.Context, p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	rr, err := lowerAndRun(ctx, p, mach, opts, Start{Resume: true})
	if err != nil {
		return nil, err
	}
	return rr.Result, nil
}

// run executes the program's opcode stream, optionally restarting every
// processor from its entry in resume (indexed by rank; nil means a fresh
// run). respawned lists ranks restarted after a fail-stop loss — they
// record a respawn instant at attempt start. On failure the partial
// Result (with the attempt's statistics) is returned alongside the error
// so the recovery loop can report and reconcile aborted attempts; the
// exported entry points discard it.
func run(ctx context.Context, l *Lowered, mach sim.Config, opts Options, resume []*ckptManifest, respawned []int) (*Result, error) {
	p, code, mutated := l.prog, l.code, l.mutated
	mach.Procs = p.Procs
	// One mapping per array for the whole run: they are read-only, and
	// the routing tables a mapping caches (dist.Tables2) are then built
	// once per run rather than once per rank.
	dmaps := make([]*dist.Array, len(code.Arrays))
	for i, spec := range code.Arrays {
		dm, err := spec.DistArray(p.Procs)
		if err != nil {
			return nil, err
		}
		dmaps[i] = dm
	}
	// Manifests are checked against the program here, before any rank
	// starts: a name or staging shape the program does not have fails the
	// resume without touching a file.
	var restores []*restored
	if resume != nil {
		restores = make([]*restored, len(resume))
		for rank, m := range resume {
			r, err := resolveManifest(code, dmaps, rank, m)
			if err != nil {
				return nil, err
			}
			restores[rank] = r
		}
	}
	fs := opts.FS
	if fs == nil {
		fs = iosim.NewMemFS()
	}
	var pstore *parity.Store
	if opts.Parity {
		pstore = parity.NewStore(fs, mach, p.Procs, opts.Resilience)
		pstore.SetPhantom(opts.Phantom)
		for _, spec := range code.Arrays {
			pstore.Protect(spec.Name)
		}
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
		var rst *restored
		if restores != nil {
			rst = restores[proc.Rank()]
		}
		in := newInterp(ctx, code, proc, fs, opts, pstore, dmaps, mutated)
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
		// write-behind buffers or touch its files during the unwind. It
		// still closes its handles — closing is not a file operation, and
		// the file storage behind them is the arena's to have back.
		defer func() { in.close(!proc.Aborted()) }()
		if err := in.initArrays(opts, rst); err != nil {
			return err
		}
		startNode, startIter := 0, 0
		if rst != nil {
			startNode, startIter = rst.man.NodeIdx, rst.man.Iter
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
		if err := in.run(startNode, startIter); err != nil {
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
		phantom: opts.Phantom, res: opts.Resilience, ckpt: opts.Checkpoint, pstore: pstore,
		mutated: mutated.names}
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

// interp executes the run's opcode stream for one rank (the fetch-decode
// loop and the opcode handlers are in bytecode.go). All state lives in
// flat tables the lowering laid out: loop variables, slab buffers and
// accumulation vectors by slot, arrays — with their slabbings, writers,
// staging and auto-staging state — by array-table index, prefetch readers
// by reader slot. Names appear only where they leave the process: error
// messages, the per-array statistics and the checkpoint manifest, all
// through code.Arrays[i].Name.
type interp struct {
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(), captured once; see cancelled
	code    *bytecode.Program
	dmaps   []*dist.Array // mapping of code.Arrays[i], shared by all ranks
	proc    *mp.Proc
	phantom bool
	fs      iosim.FS
	res     *iosim.Resilience
	pstore  *parity.Store

	// ckptSpec/ckptEpoch drive checkpointing; ckptSpec is nil when
	// checkpointing is off. ckptHook observes committed epochs on rank 0;
	// restoreStats requests exact clock/counter restoration on resume and
	// statsRestored records that it actually happened (the manifest
	// carried a stats snapshot). mutated is what a checkpoint snapshots.
	ckptSpec      *CheckpointSpec
	ckptEpoch     int
	ckptHook      func(epoch int)
	restoreStats  bool
	statsRestored bool
	mutated       writeSet

	// Per array-table index. staging holds each output array's current
	// staging buffer; autoIdx tracks the counter-driven slab index of
	// AUTO_STAGE arrays (-1 when none is active); writers holds the
	// write-behind pipelines when Options.Runtime.WriteBehind is set.
	arrays  []*oocarray.Array
	slabs   []oocarray.Slabbing
	writers []*oocarray.SlabWriter
	staging []*oocarray.ICLA
	autoOn  []bool
	autoIdx []int

	// Slot tables.
	vars []int
	bufs []*oocarray.ICLA
	vecs [][]float64

	// counter is the implicit global column counter of SUM_STORE.
	counter int

	// Prefetch readers, one slot per stream-marked LOAD_SLAB, so
	// sequential scans can be prefetched; readerNext tracks the slab
	// index each reader will deliver.
	readers    []*oocarray.SlabReader
	readerNext []int

	// frames is the live loop stack, sized once to the stream's deepest
	// loop nesting.
	frames []frame

	// estack is the expression evaluation scratch stack, sized once to
	// the deepest expression in the program.
	estack [][]float64

	// perArray attributes I/O statistics to individual arrays.
	perArray map[string]*trace.IOStats
}

// newInterp builds the interpreter shell; initArrays creates the arrays.
// The split lets the node closure register the per-array statistics map
// before any I/O happens, so even a rank killed during array fill leaves
// reconcilable statistics behind.
func newInterp(ctx context.Context, code *bytecode.Program, proc *mp.Proc, fs iosim.FS, opts Options, pstore *parity.Store, dmaps []*dist.Array, mutated writeSet) *interp {
	na := len(code.Arrays)
	return &interp{
		ctx:          ctx,
		done:         ctx.Done(),
		code:         code,
		dmaps:        dmaps,
		proc:         proc,
		phantom:      opts.Phantom,
		fs:           fs,
		res:          opts.Resilience,
		pstore:       pstore,
		ckptSpec:     opts.Checkpoint,
		ckptHook:     opts.CkptHook,
		restoreStats: opts.RestoreStats,
		mutated:      mutated,
		arrays:       make([]*oocarray.Array, na),
		slabs:        make([]oocarray.Slabbing, na),
		writers:      make([]*oocarray.SlabWriter, na),
		staging:      make([]*oocarray.ICLA, na),
		autoOn:       make([]bool, na),
		autoIdx:      make([]int, na),
		vars:         make([]int, len(code.VarNames)),
		bufs:         make([]*oocarray.ICLA, len(code.BufNames)),
		vecs:         make([][]float64, len(code.VecNames)),
		readers:      make([]*oocarray.SlabReader, code.Readers),
		readerNext:   make([]int, code.Readers),
		frames:       make([]frame, 0, loopDepth(code.Code)),
		estack:       make([][]float64, 0, code.MaxExprDepth()),
		perArray:     make(map[string]*trace.IOStats, na),
	}
}

// initArrays creates (or, on resume, reattaches to) the rank's local
// array files and fills input arrays. When fault injection is active the
// array disks feed the processor's op counter, so kills can land between
// I/O operations exactly as they can between message operations.
func (in *interp) initArrays(opts Options, resume *restored) error {
	proc := in.proc
	for i, spec := range in.code.Arrays {
		dm := in.dmaps[i]
		arrStats := &trace.IOStats{}
		in.perArray[spec.Name] = arrStats
		disk := iosim.NewResilientDisk(in.fs, proc.Config(), arrStats, opts.Resilience)
		disk.SetPhantom(opts.Phantom)
		disk.SetTracer(proc.Tracer(), proc.Clock(), spec.Name)
		if opts.failureActive() {
			disk.SetOpHook(proc.StepOp)
		}
		if in.pstore != nil {
			disk.SetParity(in.pstore)
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
		in.arrays[i] = arr
		in.slabs[i] = arr.Slabbing(spec.SlabDim, spec.SlabElems)
		if opts.Runtime.WriteBehind {
			in.writers[i] = arr.NewSlabWriter()
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
		return in.restore(resume)
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

func (in *interp) close(flush bool) {
	for _, w := range in.writers {
		if w != nil && flush {
			w.Flush()
		}
	}
	for _, a := range in.arrays {
		if a != nil {
			a.Close()
		}
	}
}

// cancelled is the op-boundary cancellation check of the dispatch loop:
// one non-blocking receive on the run's done channel. It touches no
// shared lock — a receive on an open, empty channel is two atomic loads,
// and on the nil channel of a non-cancellable context
// (context.Background, the plain path the wallbench gates pin) it returns
// at once. ctx.Err() must not be polled here instead: on a cancellable
// context it takes the context's mutex, one lock shared by all P rank
// goroutines at every instruction, which was half the host time of a
// served GAXPY. Err is consulted only after done has closed, when it is
// guaranteed non-nil.
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

// recycle returns a slab buffer to the arena once no slot references it
// anymore. Both tables are small (a handful of buffers), so the alias
// scan costs nothing next to the slab I/O it follows.
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

// releaseBufs returns every buffer the interpreter still holds — buffer
// slots, staging slabs, accumulator vectors, prefetched-but-undelivered
// reader slabs — to the arena. It runs on every exit path (success,
// cancellation, fault abort), so a checked-mode Gets/Puts balance holds
// across a whole run, not just across the collective layers. Tables can
// alias one ICLA; the seen set guarantees a single release.
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
	for i, v := range in.vecs {
		bufpool.PutF64(v)
		in.vecs[i] = nil
	}
	for _, r := range in.readers {
		if r != nil {
			r.Close()
		}
	}
}

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
	"slices"
	"sort"
	"sync"

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

// Options configures an execution. Sieving, prefetch and write-behind
// are not among them: a run takes them from plan.Program.Runtime.
type Options struct {
	// Fill provides initial values for input arrays by name, one call
	// per element; inputs without an entry here or in Inputs start
	// zeroed.
	Fill map[string]func(gi, gj int) float64
	// Inputs provides initial values for input arrays by name as
	// oocarray inputs, which a separable input makes a column at a time
	// (see oocarray.Input). An array may be named in Fill or Inputs, not
	// both.
	Inputs map[string]oocarray.Input
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
	// Pass the same Resilience to a later resume so the checksum store
	// survives the restart.
	Resilience *iosim.Resilience
	// Checkpoint, when non-nil, periodically commits a consistent global
	// checkpoint a failed run can restart from (Resume). It also
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
	// Faults schedules injected faults on the machine's per-rank
	// coordinate (see mp.Fault): rank deaths and disk losses on its
	// operation counter (messages and local array chunk I/O), I/O faults
	// on the file operations the rank issues, which its fault source
	// (Chaos) fires. A rank death is survived with Checkpoint and Parity
	// both set (see Result.Recoveries); a disk loss (interp.loseDisk) is
	// reconstructed online with Parity set (see Result.DiskLosses).
	// Without them the fault fails the run.
	Faults []mp.Fault
	// Chaos draws I/O faults on every file operation a rank issues (see
	// iosim.Chaos); the injected counts come back on Result.Chaos. I/O
	// no rank issues — verification reads, resume's manifest scan,
	// cleanup, the offline rebuild between attempts — draws nothing.
	Chaos iosim.ChaosConfig
	// OpCounts, when non-nil (len >= Procs), receives each rank's final
	// fault operation count; probe runs use it to learn the op-index
	// space a fault schedule can target.
	OpCounts []int64
	// Resume restarts a killed or failed checkpointed run from its last
	// globally consistent checkpoint. It needs the original backing FS
	// and the same CheckpointSpec; pass the original Resilience too so
	// the checksum store carries over. The run fails with ErrNoCheckpoint
	// (wrapped) when no complete checkpoint epoch exists.
	Resume bool
	// RestoreStats makes a resume restore each rank's simulated clock and
	// statistics counters from the checkpoint manifest and replay the
	// commit barrier, so a resumed run's final statistics are bitwise
	// identical to the uninterrupted run's. It changes nothing on fresh
	// runs; a manifest without a statistics snapshot fails the resume.
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
	return mp.Options{Faults: o.Faults, OpCounts: o.OpCounts}
}

// chaosActive reports whether the ranks' file operations go through a
// fault source: faults are drawn or a file-operation fault is scheduled.
func (o Options) chaosActive() bool {
	return o.Chaos.Active() || slices.ContainsFunc(o.Faults, func(f mp.Fault) bool { return f.Kind.IO() })
}

// failureActive reports whether any fault machinery (fault schedule, op
// counting) is configured; only then are the per-array disks' operation
// hooks and the disk-loss handler installed, keeping plain runs at zero
// overhead.
func (o Options) failureActive() bool {
	return len(o.Faults) > 0 || o.OpCounts != nil
}

// Result is a completed execution: its successful attempt's statistics,
// and the losses survived on the way.
type Result struct {
	Stats   *trace.Stats
	Program *plan.Program
	// PerArray holds per-processor, per-array I/O statistics: indexed by
	// rank, then by array name. It lets the Equations 3-6 counts be
	// checked on compiled programs, not just the hand-coded baselines.
	// It belongs to the run until Close, which hands it to the lowered
	// plan's next run and leaves PerArray nil.
	PerArray []map[string]*trace.IOStats
	// Attempts counts executions of the program body (1 = no loss), and
	// Recoveries describes each survived loss, in order.
	Attempts   int
	Recoveries []Recovery
	// DiskLosses lists the scheduled disk losses that fired, over every
	// attempt, in attempt and then rank order.
	DiskLosses []mp.Fault
	// Chaos sums, over every rank and attempt, the file operations the
	// ranks' fault sources saw and the faults they injected (zero when
	// Options inject no I/O fault).
	Chaos iosim.ChaosCounts
	// Trace holds the successful attempt's spans: Options.Trace itself
	// when no loss occurred, else a fresh tracer sharing its live stream
	// (the aborted attempts' tracers are in Recoveries).
	Trace *trace.Tracer

	lowered *Lowered
	kit     *kit          // the run's rank state, until Close gives it back
	dmaps   []*dist.Array // the lowered plan's mapping of Program.Arrays[i]
	fs      iosim.FS      // nil once closed
	store   *iosim.MemFS  // fs, when it is the run's private store
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
// any) from the backing store and gives the run's rank state back to its
// lowered plan, PerArray included: call it when the result's file
// contents and per-array statistics are no longer needed. A run without
// Options.FS also gives back its private store, once emptied. ReadArray
// stops working afterwards and PerArray is nil; Stats stays the
// caller's. A second Close removes nothing more and gives nothing back
// again. A non-nil error joins every checkpoint-GC failure that was not
// a missing file, so leaked stale snapshots are visible to the caller.
func (r *Result) Close() error {
	if r.fs == nil {
		return nil
	}
	removeRunFiles(r.fs, r.lowered.shares)
	if r.pstore != nil {
		r.pstore.Close()
	}
	if r.kit != nil {
		r.PerArray = nil
		r.lowered.putKit(r.kit)
		r.kit = nil
	}
	err := removeCheckpointFiles(r.fs, r.Program.Procs, r.mutated, r.ckpt)
	if r.store != nil {
		r.lowered.putStore(r.store)
		r.store = nil
	}
	r.fs = nil
	return err
}

// removeRunFiles deletes the local array files a program creates,
// ignoring missing files (error-path and Close cleanup).
func removeRunFiles(fs iosim.FS, shares []oocarray.Share) {
	for _, sh := range shares {
		fs.Remove(sh.File)
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
	l, err := Lower(p)
	if err != nil {
		return nil, err
	}
	return RunLowered(ctx, l, mach, opts)
}

// Lowered is a program lowered to the opcode stream its runs execute,
// with the set of arrays it writes, every array's mapping and every
// rank's share of it (local shape and file name). It is safe for
// concurrent runs, so any number of them can share one; a serving plan
// cache holds one per entry and lowers each plan once. The mappings are read-only and publish their
// routing tables (dist.Tables2) once, so every run of the plan — each
// job, each attempt after a rank loss — routes through one set of
// tables. The runs' rank state is kept too: a closed run's kit waits on
// a bounded free list for the plan's next run (kit.go).
type Lowered struct {
	prog    *plan.Program
	code    *bytecode.Program
	mutated writeSet
	dmaps   []*dist.Array // mapping of code.Arrays[i]
	// shares holds every rank's share of every array, array i's on rank r
	// at i*prog.Procs+r: the local shapes and file names each run's
	// arrays take. foldOrder is every name a rank's per-array statistics
	// can hold, sorted, the order a rank adds them up in.
	shares    []oocarray.Share
	foldOrder []string
	loopDepth int // the stream's deepest loop nesting
	kits      kitList
	stores    storeList
}

// Lower lowers p. A program the lowering rejects (a buffer read before
// any definition, a dead loop variable, an unknown array, a mapping the
// processor count cannot realize) fails with an "exec: lower: ..."
// error; every entry point lowers first, so such a program fails before
// any file or processor exists.
func Lower(p *plan.Program) (*Lowered, error) {
	code, err := bytecode.Compile(p)
	if err != nil {
		return nil, fmt.Errorf("exec: lower: %w", err)
	}
	dmaps := make([]*dist.Array, len(code.Arrays))
	for i, spec := range code.Arrays {
		if dmaps[i], err = spec.DistArray(p.Procs); err != nil {
			return nil, fmt.Errorf("exec: lower: %w", err)
		}
	}
	l := &Lowered{prog: p, code: code, mutated: mutatedArrays(code), dmaps: dmaps,
		shares: make([]oocarray.Share, 0, len(code.Arrays)*p.Procs), foldOrder: make([]string, 0, len(code.Arrays)+1),
		loopDepth: loopDepth(code.Code)}
	for i, spec := range code.Arrays {
		for r := 0; r < p.Procs; r++ {
			sh, err := oocarray.ShareOf(dmaps[i], r)
			if err != nil {
				return nil, fmt.Errorf("exec: lower: %w", err)
			}
			l.shares = append(l.shares, sh)
		}
		l.foldOrder = append(l.foldOrder, spec.Name)
	}
	l.foldOrder = append(l.foldOrder, parityStatsKey)
	sort.Strings(l.foldOrder)
	return l, nil
}

// RunLowered runs an already-lowered program, the one path under RunCtx,
// which lowers and then calls it. With Options.Resume the first attempt
// restarts from the last consistent checkpoint; the rank deaths
// Options.Faults schedules are survived when Checkpoint and Parity are
// both set (survive.go), its disk losses when Parity is.
func RunLowered(ctx context.Context, l *Lowered, mach sim.Config, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, spec := range l.code.Arrays {
		_, filled := opts.Fill[spec.Name]
		if _, ok := opts.Inputs[spec.Name]; ok && filled {
			return nil, fmt.Errorf("exec: array %s is named in both Options.Fill and Options.Inputs", spec.Name)
		}
	}
	var manifests []*ckptManifest
	if opts.Resume {
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
	var store *iosim.MemFS
	if opts.FS == nil {
		// Every attempt of the run works on one backing store, the plan's
		// to reuse once the final Result is closed.
		store = l.takeStore()
		opts.FS = store
	}
	res, err := survive(ctx, l, mach, opts, manifests)
	if res != nil {
		res.store = store
	}
	return res, err
}

// run executes one attempt of the program's opcode stream on opts.FS,
// optionally restarting every processor from its entry in resume
// (indexed by rank; nil means a fresh run). respawned lists ranks
// restarted after a fail-stop loss — they record a respawn instant at
// attempt start. On failure the partial Result (with the attempt's
// statistics) is returned alongside the error so the recovery loop can
// report and reconcile aborted attempts.
func run(ctx context.Context, l *Lowered, mach sim.Config, opts Options, resume []*ckptManifest, respawned []int) (*Result, error) {
	p, code, mutated, dmaps := l.prog, l.code, l.mutated, l.dmaps
	mach.Procs = p.Procs
	// Manifests are checked against the program here, before any rank
	// starts: a name or staging shape the program does not have fails the
	// resume without touching a file.
	var restores []*restored
	if resume != nil {
		restores = make([]*restored, len(resume))
		for rank, m := range resume {
			r, err := resolveManifest(l, rank, m, opts.RestoreStats)
			if err != nil {
				return nil, err
			}
			restores[rank] = r
		}
	}
	fs := opts.FS
	var pstore *parity.Store
	if opts.Parity {
		pstore = parity.NewStore(fs, mach, p.Procs, opts.Resilience)
		pstore.SetPhantom(opts.Phantom)
		// Every rank's file size of each array, which the parity
		// hosts size their files by.
		bytes := make([]int64, len(l.shares))
		for j, sh := range l.shares {
			bytes[j] = int64(sh.Rows) * int64(sh.Cols) * iosim.FileElemBytes
		}
		for i, spec := range code.Arrays {
			pstore.Protect(spec.Name, bytes[i*p.Procs:(i+1)*p.Procs]...)
		}
	}
	k := l.takeKit()
	k.created.Add(p.Procs)
	k.opts = opts
	stats, err := mp.RunOpts(mach, opts.mpOptions(), func(proc *mp.Proc) error {
		opts := &k.opts
		proc.SetTracer(opts.Trace.Rank(proc.Rank()))
		for _, r := range respawned {
			if r == proc.Rank() {
				// This rank was lost last attempt and has been respawned:
				// mark the restart.
				proc.Record(&trace.Span{Kind: trace.KindRespawn, Start: proc.Clock().Seconds()})
			}
		}
		if pstore != nil {
			pstore.SetCommSink(proc.Rank(), proc.Stats())
		}
		var rst *restored
		if restores != nil {
			rst = restores[proc.Rank()]
		}
		in := k.interps[proc.Rank()]
		in.start(ctx, l, proc, fs, opts, pstore)
		if opts.failureActive() {
			proc.OnDiskLoss(in.loseDisk)
		}
		// Runs last (defers are LIFO): whatever path the run leaves by —
		// success, cancellation, fault abort, plan-bug panic — the slab
		// buffers the interpreter still holds go back to the arena.
		defer in.releaseBufs()
		// The success path folds the per-array statistics into the
		// processor total at the end of the body; an aborted rank
		// (killed, or unwinding on a peer's death) folds in this handler
		// instead, so even a failed attempt's spans and counters
		// reconcile.
		defer func() {
			if proc.Aborted() {
				in.fold(l.foldOrder)
			}
		}()
		// A dead or aborting rank is fail-stop: it must not flush
		// write-behind buffers or touch its files during the unwind. It
		// still closes its handles — closing is not a file operation, and
		// the file storage behind them is the arena's to have back.
		defer func() { in.close(!proc.Aborted()) }()
		if err := in.initArrays(opts, p.Runtime, rst, &k.created); err != nil {
			return err
		}
		startNode, startIter := 0, 0
		if rst != nil {
			startNode, startIter = rst.man.NodeIdx, rst.man.Iter
			// Resuming attaches to pre-existing local array files whose
			// parity may be stale (the crash can have interrupted a
			// read-modify-write); rebuild redundancy before computing.
			if err := in.paritySync(false); err != nil {
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
		if err := in.paritySync(true); err != nil {
			return err
		}
		in.fold(l.foldOrder)
		return nil
	})
	res := &Result{Stats: stats, Program: p, PerArray: k.perArray, lowered: l, kit: k, dmaps: dmaps,
		fs: fs, mach: mach, phantom: opts.Phantom, res: opts.Resilience,
		ckpt: opts.Checkpoint, pstore: pstore, mutated: mutated.names}
	for _, in := range k.interps {
		res.DiskLosses = append(res.DiskLosses, in.lost...)
		if in.inj != nil {
			res.Chaos.Add(in.inj.Counts())
		}
	}
	if err != nil {
		// Without a checkpoint there is nothing to resume from, so a
		// failed run must not leave local array files behind; with one,
		// the files (and the parity protecting them) are the restart
		// state: keep them, releasing only the store's cached handles.
		if opts.Checkpoint == nil {
			removeRunFiles(fs, l.shares)
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
	if r.fs == nil {
		return nil, fmt.Errorf("exec: cannot read arrays from a closed result")
	}
	i := slices.IndexFunc(r.Program.Arrays, func(a plan.ArraySpec) bool { return a.Name == name })
	if i < 0 {
		return nil, fmt.Errorf("exec: unknown array %q", name)
	}
	spec, dm := r.Program.Arrays[i], r.dmaps[i]
	out := matrix.New(spec.Rows, spec.Cols)
	for proc := 0; proc < r.Program.Procs; proc++ {
		disk := iosim.NewResilientDisk(r.fs, r.mach, nil, r.res)
		if r.pstore != nil {
			disk.SetParity(r.pstore)
		}
		sh := r.lowered.shares[i*r.Program.Procs+proc]
		laf, err := disk.OpenLAF(sh.File, int64(sh.Rows)*int64(sh.Cols))
		if err != nil {
			return nil, err
		}
		data, _, err := laf.ReadAll()
		laf.Close()
		if err != nil {
			return nil, err
		}
		rows, cols := sh.Rows, sh.Cols
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
	shares  []oocarray.Share // the Lowered's, shared by all ranks
	proc    *mp.Proc
	phantom bool
	fs      iosim.FS
	res     *iosim.Resilience
	pstore  *parity.Store
	// inj is the rank's fault source, chaos armed for the run, when the
	// run injects I/O faults; every disk the rank makes carries it.
	inj   *iosim.Chaos
	chaos iosim.Chaos

	// ckptSpec/ckptEpoch drive checkpointing; ckptSpec is nil when
	// checkpointing is off. ckptHook observes committed epochs on rank 0;
	// restoreStats requests exact clock/counter restoration on resume and
	// statsRestored records that it happened (the run resumed). mutated
	// is what a checkpoint snapshots.
	ckptSpec      *CheckpointSpec
	ckptEpoch     int
	ckptHook      func(epoch int)
	restoreStats  bool
	statsRestored bool
	mutated       writeSet

	// counter is the implicit global column counter of SUM_STORE.
	counter int

	// folded records that the rank's per-array statistics are in its
	// processor total (see fold).
	folded bool

	// lost lists the rank's disk losses that fired this run; held those
	// the parity sync in progress (syncing) performs at its end.
	lost, held []mp.Fault
	syncing    bool

	tables
}

// tables are an interpreter's tables, sized by the lowering; they belong
// to its kit and outlive the run, cleared (reset).
type tables struct {
	// Per array-table index. arrays holds the run's arrays, each
	// arrayStore[i] once initArrays has made it again on disks[i]; the
	// kit keeps both, and readerStore, from run to run. staging holds each
	// output array's current staging buffer; autoIdx tracks the
	// counter-driven slab index of AUTO_STAGE arrays (-1 when none is
	// active); writers holds the write-behind pipelines when the plan's
	// Runtime.WriteBehind is set.
	arrays     []*oocarray.Array
	arrayStore []oocarray.Array
	disks      []iosim.Disk
	slabs      []oocarray.Slabbing
	writers    []*oocarray.SlabWriter
	staging    []*oocarray.ICLA
	autoOn     []bool
	autoIdx    []int

	// Slot tables. bufArrays[slot] is the array bufs[slot] was read from
	// or made for, the one teardown gives the buffer back to.
	vars      []int
	bufs      []*oocarray.ICLA
	bufArrays []*oocarray.Array
	vecs      [][]float64

	// Prefetch readers, one slot per stream-marked LOAD_SLAB, so
	// sequential scans can be prefetched: readers[ri] is readerStore[ri]
	// once the run has started it. readerNext tracks the slab index each
	// reader will deliver.
	readers     []*oocarray.SlabReader
	readerStore []oocarray.SlabReader
	readerNext  []int

	// frames is the live loop stack, sized once to the stream's deepest
	// loop nesting.
	frames []frame

	// estack is the expression evaluation scratch stack, sized once to
	// the deepest expression in the program.
	estack [][]float64

	// perArray attributes I/O statistics to individual arrays; io holds
	// the statistics of array-table index i at io[i], this rank's row of
	// its kit's block.
	perArray map[string]*trace.IOStats
	io       []trace.IOStats
}

// start readies a kit's interpreter for one run on proc; initArrays
// creates the arrays. The split lets the node closure register the
// per-array statistics map before any I/O happens, so even a rank killed
// during array fill leaves reconcilable statistics behind.
func (in *interp) start(ctx context.Context, l *Lowered, proc *mp.Proc, fs iosim.FS, opts *Options, pstore *parity.Store) {
	*in = interp{
		ctx:          ctx,
		done:         ctx.Done(),
		code:         l.code,
		shares:       l.shares,
		proc:         proc,
		phantom:      opts.Phantom,
		fs:           fs,
		res:          opts.Resilience,
		pstore:       pstore,
		ckptSpec:     opts.Checkpoint,
		ckptHook:     opts.CkptHook,
		restoreStats: opts.RestoreStats,
		mutated:      l.mutated,
		chaos:        in.chaos,
		tables:       in.tables,
	}
	if opts.chaosActive() {
		in.chaos.Reset(opts.Chaos, proc.Rank(), opts.Faults)
		in.inj = &in.chaos
	}
}

// disk makes a disk of the rank's over the run's store, accounting into
// stats (nil: unaccounted) and carrying the rank's fault source.
func (in *interp) disk(stats *trace.IOStats) *iosim.Disk {
	d := iosim.NewResilientDisk(in.fs, in.proc.Config(), stats, in.res)
	d.SetChaos(in.inj)
	return d
}

// initArrays creates (or, on resume, reattaches to) the rank's local
// array files, built with the plan's runtime switches rt, and then fills
// input arrays. The disks and arrays are the kit's, re-armed for this
// run. When fault injection is active the array disks feed the
// processor's op counter, so faults can land between I/O operations
// exactly as they can between message operations: creating counts no
// operation, filling does. Between the two the ranks meet at created (no
// simulated cost), so a reconstruction finds every group member there.
func (in *interp) initArrays(opts *Options, rt oocarray.Options, resume *restored, created *sync.WaitGroup) error {
	err := in.createArrays(opts, rt, resume != nil, created)
	created.Wait()
	if err != nil {
		return err
	}
	if resume != nil {
		return in.restore(resume)
	}
	if opts.Phantom {
		return nil
	}
	for i, spec := range in.code.Arrays {
		if spec.Role != plan.In {
			continue
		}
		input, ok := opts.Inputs[spec.Name]
		if f, fok := opts.Fill[spec.Name]; fok {
			input, ok = oocarray.Input{At: f}, true
		}
		if ok {
			if err := in.arrays[i].Fill(input); err != nil {
				return err
			}
		}
	}
	return nil
}

// createArrays creates the rank's local array files, or with reopen
// attaches to the existing ones (a resumed run rebuilds their contents
// from the checkpoints). It arrives at created on every path, a panic's
// included.
func (in *interp) createArrays(opts *Options, rt oocarray.Options, reopen bool, created *sync.WaitGroup) error {
	defer created.Done()
	proc := in.proc
	for i, spec := range in.code.Arrays {
		arrStats := &in.io[i]
		in.perArray[spec.Name] = arrStats
		disk := &in.disks[i]
		disk.Reset(in.fs, proc.Config(), arrStats, opts.Resilience)
		disk.SetPhantom(opts.Phantom)
		disk.SetTracer(proc.Tracer(), proc.Clock(), spec.Name)
		disk.SetChaos(in.inj)
		if opts.failureActive() {
			disk.SetOpHook(proc.StepOp)
		}
		if in.pstore != nil {
			disk.SetParity(in.pstore)
		}
		arr, sh := &in.arrayStore[i], in.shares[i*proc.Size()+proc.Rank()]
		var err error
		if reopen {
			err = arr.Open(disk, sh, proc.Clock(), rt)
		} else {
			err = arr.Create(disk, sh, proc.Clock(), rt)
		}
		if err != nil {
			return err
		}
		in.arrays[i] = arr
		in.slabs[i] = arr.Slabbing(spec.SlabDim, spec.SlabElems)
		if rt.WriteBehind {
			in.writers[i] = arr.NewSlabWriter()
		}
	}
	return nil
}

// loseDisk is the rank's disk-loss handler (mp.Proc.OnDiskLoss), run on
// its own goroutine between two of its operations: each of the rank's
// local array files fails with iosim.ErrDiskLost from now on (a
// protected one is reconstructed at its next transfer), the parity store
// counts the parity files the disk hosts as lost, and every other file
// of the disk the file system can enumerate is removed.
// Inside a parity sync the loss is held to the sync's end (paritySync).
func (in *interp) loseDisk(f mp.Fault) {
	if in.syncing {
		in.held = append(in.held, f)
		return
	}
	in.lost = append(in.lost, f)
	for _, a := range in.arrays {
		a.Lose()
	}
	if in.pstore != nil {
		in.pstore.LoseDisk(f.Rank)
	}
	if nm, ok := in.fs.(interface{ Names() []string }); ok {
		for _, name := range nm.Names() {
			if iosim.DiskOf(name) == f.Rank {
				in.fs.Remove(name) // best effort: the disk is gone either way
			}
		}
	}
}

// parityStatsKey is the perArray key that collects the I/O charged to
// collective parity rebuilds (it is folded into the processor totals like
// any per-array entry).
const parityStatsKey = "(parity)"

// paritySync is a collective that restores full redundancy: if any parity
// group went out of sync (degraded writes, a reconstructed disk's own
// parity file, or a resumed run attaching to files with untrusted
// parity), every rank rebuilds the parity files its logical disk hosts,
// as does a rank whose own disk was lost. Barriers bracket the rebuild
// so no rank races a reconstruction against a half-rebuilt parity file,
// and the dirty flags are cleared only once every rank has finished. A
// disk loss on one of the sync's operations is held to its end, where it
// cannot reach any rank's decision by host timing; the closing sync
// rebuilds its parity at once.
func (in *interp) paritySync(closing bool) error {
	if in.pstore == nil {
		return nil
	}
	in.syncing = true
	in.proc.Barrier(parityTag)
	var err error
	if in.pstore.NeedsRebuild(in.proc.Rank()) {
		err = in.rebuildParity()
	}
	in.proc.Barrier(parityTag)
	in.syncing = false
	if err != nil {
		return err
	}
	in.pstore.ClearDirty()
	if len(in.held) == 0 {
		return nil
	}
	for _, f := range in.held {
		in.loseDisk(f)
	}
	in.held = nil
	if closing {
		return in.rebuildParity()
	}
	return nil
}

// rebuildParity runs parity.Store.RebuildRank for the rank, charged to
// its clock and parity statistics.
func (in *interp) rebuildParity() error {
	st := in.perArray[parityStatsKey]
	if st == nil {
		st = &trace.IOStats{}
		in.perArray[parityStatsKey] = st
	}
	disk := in.disk(st)
	disk.SetPhantom(in.phantom)
	disk.SetTracer(in.proc.Tracer(), in.proc.Clock(), parityStatsKey)
	sec, err := in.pstore.RebuildRank(disk, in.proc.Rank())
	// Recorded before the clock advance: the span starts where the
	// rebuild did.
	disk.Record(&trace.Span{Kind: trace.KindParitySync, Dur: sec})
	in.proc.Clock().Advance(sec)
	return err
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
// reader slabs — to the arena, and their headers to the arrays they came
// from, for the kit's next run. It runs on every exit path (success,
// cancellation, fault abort), so a checked-mode Gets/Puts balance holds
// across a whole run, not just across the collective layers. Tables can
// alias one ICLA; Recycle releases it once.
func (in *interp) releaseBufs() {
	for slot, s := range in.bufs {
		if s != nil {
			in.bufArrays[slot].Recycle(s)
		}
	}
	for i, s := range in.staging {
		if s != nil {
			in.arrays[i].Recycle(s)
		}
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

// fold adds the rank's per-array statistics into its processor total,
// once, in sorted-name order (the Lowered's foldOrder) so the float sums
// are reproducible and match the span replay's fold, which uses the same
// order.
func (in *interp) fold(order []string) {
	if in.folded {
		return
	}
	in.folded = true
	io := &in.proc.Stats().IO
	for _, name := range order {
		if st := in.perArray[name]; st != nil {
			io.Add(*st)
		}
	}
}

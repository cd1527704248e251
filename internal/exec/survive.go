package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/parity"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Recovery records one survived fail-stop loss: the attempt that died,
// what it cost, and the offline rebuild that made the restart possible.
type Recovery struct {
	// Failed is the agreed set of ranks lost in the aborted attempt.
	Failed []int
	// Err is the attempt's failure (an *mp.RankFailure wrapping the typed
	// per-rank errors), kept for reporting.
	Err error
	// Stats and PerArray are the aborted attempt's statistics up to the
	// abort point; Trace is its span timeline when tracing was on. They
	// reconcile exactly (trace.Reconcile) like a completed run's do.
	Stats    *trace.Stats
	PerArray []map[string]*trace.IOStats
	Trace    *trace.Tracer
	// RebuildSeconds is the simulated time of the offline parity
	// reconstruction of the dead ranks' disks; RebuildIO holds the
	// reconstruction counters it charged.
	RebuildSeconds float64
	RebuildIO      trace.IOStats
}

// ResilientResult is a run that completed despite zero or more fail-stop
// rank losses.
type ResilientResult struct {
	*Result
	// Attempts counts executions of the program body (1 = no failure).
	Attempts int
	// Recoveries describes each survived loss, in order.
	Recoveries []Recovery
	// Trace is the successful attempt's tracer (nil unless Options.Trace
	// was set); aborted attempts' tracers live in Recoveries.
	Trace *trace.Tracer
}

// RunResilient executes the program, surviving up to maxRecoveries
// fail-stop rank losses. Each loss runs the full recovery pipeline: the
// survivors detect the dead ranks after the heartbeat timeout, the run
// aborts, the dead ranks' local array files are reconstructed offline
// from rotated parity (Options.Parity), the dead ranks are respawned,
// and the program resumes from its last consistent checkpoint
// (Options.Checkpoint). The final arrays are bitwise identical to a
// failure-free run's.
//
// Options.Trace, when non-nil, acts as an enable flag: every attempt
// gets a fresh tracer so aborted and successful timelines stay separate
// (the caller's tracer itself is not used). Failures past maxRecoveries,
// non-failure errors, and losses without both Checkpoint and Parity
// configured are returned as errors, joined with any recovery context.
func RunResilient(p *plan.Program, mach sim.Config, opts Options, maxRecoveries int) (*ResilientResult, error) {
	return RunResilientCtx(context.Background(), p, mach, opts, maxRecoveries)
}

// RunResilientCtx is RunResilient under a context: cancellation stops
// the in-flight attempt at the next op boundary and also ends the
// recovery loop — a cancelled job must not rebuild disks and relaunch
// itself. The returned error wraps ctx.Err().
func RunResilientCtx(ctx context.Context, p *plan.Program, mach sim.Config, opts Options, maxRecoveries int) (*ResilientResult, error) {
	return lowerAndRun(ctx, p, mach, opts, Start{Resilient: true, MaxRecoveries: maxRecoveries})
}

// runResilient is RunLowered's recovery loop; manifests, when non-nil,
// are what the first attempt resumes from.
func runResilient(ctx context.Context, l *Lowered, mach sim.Config, opts Options, maxRecoveries int, manifests []*ckptManifest) (*ResilientResult, error) {
	if opts.FS == nil {
		// Recovery spans several runs over one backing store.
		opts.FS = iosim.NewMemFS()
	}
	p := l.prog
	traceOn := opts.Trace != nil
	rr := &ResilientResult{}
	respawned := []int(nil)
	for {
		if traceOn {
			// Fresh tracer per attempt, but one live stream for the whole
			// job: the new tracer adopts the previous one's sink state (the
			// caller's on attempt 1), so a streaming consumer sees every
			// attempt's spans and the caller's CloseSink drains them all.
			prev := opts.Trace
			opts.Trace = trace.NewTracer(p.Procs)
			opts.Trace.AdoptSink(prev)
		}
		rr.Attempts++
		res, err := run(ctx, l, mach, opts, manifests, respawned)
		if err == nil {
			rr.Result = res
			rr.Trace = opts.Trace
			return rr, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("exec: recovery abandoned: %w", errors.Join(cerr, err))
		}
		var rf *mp.RankFailure
		if !errors.As(err, &rf) || len(rf.Failed) == 0 {
			return nil, err
		}
		if opts.Checkpoint == nil || !opts.Parity {
			return nil, fmt.Errorf("exec: rank loss without checkpoint+parity protection is unrecoverable: %w", err)
		}
		if len(rr.Recoveries) >= maxRecoveries {
			return nil, fmt.Errorf("exec: recovery limit (%d) exceeded: %w", maxRecoveries, err)
		}
		rec := Recovery{Failed: rf.Failed, Err: err, Trace: opts.Trace}
		if res != nil {
			rec.Stats = res.Stats
			rec.PerArray = res.PerArray
		}
		sec, io, rerr := rebuildRanks(opts.FS, p, mach, opts, rf.Failed)
		rec.RebuildSeconds, rec.RebuildIO = sec, io
		rr.Recoveries = append(rr.Recoveries, rec)
		if rerr != nil {
			return nil, fmt.Errorf("exec: rebuilding ranks %v: %w", rf.Failed, errors.Join(rerr, err))
		}
		manifests, rerr = loadResumeManifests(opts.FS, opts.Checkpoint, p.Procs)
		if errors.Is(rerr, ErrNoCheckpoint) {
			// Killed before the first commit: nothing to resume from, so
			// the next attempt restarts from scratch (deterministic, so
			// still bitwise identical to the failure-free run).
			manifests, rerr = nil, nil
		}
		if rerr != nil {
			return nil, fmt.Errorf("exec: resuming after losing ranks %v: %w", rf.Failed, errors.Join(rerr, err))
		}
		opts.Kill = pruneFired(opts.Kill, err)
		respawned = rf.Failed
	}
}

// pruneFired drops kill-schedule entries that already fired (reported as
// *mp.RankKilledError in the attempt's error tree), so the respawned
// rank does not re-execute the same death. Remaining entries apply to
// the respawned rank's fresh op numbering — scheduling a second kill
// there injects a failure during recovery.
func pruneFired(kill []mp.KillSpec, err error) []mp.KillSpec {
	var fired []*mp.RankKilledError
	collectKilled(err, &fired)
	if len(fired) == 0 {
		return kill
	}
	out := kill[:0:0]
	for _, k := range kill {
		hit := false
		for _, f := range fired {
			if f.Rank == k.Rank && f.Op == k.Op {
				hit = true
				break
			}
		}
		if !hit {
			out = append(out, k)
		}
	}
	return out
}

// collectKilled walks the whole error tree (single and multi unwrap)
// accumulating every injected-kill leaf; errors.As stops at the first.
func collectKilled(err error, out *[]*mp.RankKilledError) {
	if err == nil {
		return
	}
	if rk, ok := err.(*mp.RankKilledError); ok {
		*out = append(*out, rk)
	}
	switch x := err.(type) {
	case interface{ Unwrap() []error }:
		for _, e := range x.Unwrap() {
			collectKilled(e, out)
		}
	case interface{ Unwrap() error }:
		collectKilled(x.Unwrap(), out)
	}
}

// rebuildRanks is the offline recovery pre-pass run between attempts: it
// mounts spare disks for the dead ranks and reconstructs every local
// array file they hosted from the surviving disks' data and parity, then
// recomputes the parity files the dead disks hosted. It works on a fresh
// parity store attached (trusted) to the surviving files: kills land
// only between operations, never inside a parity read-modify-write, so
// the on-disk parity is consistent with the on-disk data at every kill
// point. The returned seconds are the simulated reconstruction time and
// the IOStats carry the reconstruction counters.
func rebuildRanks(fs iosim.FS, p *plan.Program, mach sim.Config, opts Options, dead []int) (float64, trace.IOStats, error) {
	var io trace.IOStats
	st := parity.NewStore(fs, mach, p.Procs, opts.Resilience)
	st.SetPhantom(opts.Phantom)
	defer st.Detach()
	d := iosim.NewResilientDisk(fs, mach, &io, opts.Resilience)
	d.SetPhantom(opts.Phantom)

	// The failure domain is the whole logical disk: the dead ranks' data
	// files and hosted parity files are gone, whatever the backing store
	// still holds.
	for _, r := range dead {
		for _, spec := range p.Arrays {
			fs.Remove(fmt.Sprintf("%s.p%d.laf", spec.Name, r))
			fs.Remove(parity.ParityFileName(spec.Name, r))
		}
	}
	for _, spec := range p.Arrays {
		st.Protect(spec.Name)
		dm, err := spec.DistArray(p.Procs)
		if err != nil {
			return 0, io, err
		}
		for r := 0; r < p.Procs; r++ {
			st.Attach(fmt.Sprintf("%s.p%d.laf", spec.Name, r),
				int64(dm.LocalElems(r))*iosim.FileElemBytes)
		}
	}

	// Sorted base order, matching RebuildRank's own iteration and the
	// cost model's closed form, so the accumulated seconds reproduce.
	bases := make([]string, 0, len(p.Arrays))
	for _, spec := range p.Arrays {
		bases = append(bases, spec.Name)
	}
	sort.Strings(bases)

	var sec float64
	var errs []error
	for _, r := range dead {
		for _, base := range bases {
			name := fmt.Sprintf("%s.p%d.laf", base, r)
			rs, err := st.Recover(d, name, fmt.Errorf("rank %d fail-stop loss", r))
			sec += rs
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(errs) == 0 {
		// Recover flagged each dead rank's hosted parity file lost;
		// recompute them so the restart begins fully redundant.
		for _, r := range dead {
			rs, err := st.RebuildRank(d, r)
			sec += rs
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	io.Seconds += sec
	return sec, io, errors.Join(errs...)
}

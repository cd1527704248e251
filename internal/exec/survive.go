package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/parity"
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

// survive is RunLowered's one run loop; manifests, when non-nil, are
// what the first attempt resumes from. An attempt that loses ranks to
// the rank deaths of Options.Faults, under both Checkpoint and Parity,
// runs the full recovery pipeline: the survivors detect the dead ranks
// after the heartbeat timeout, the attempt aborts, the dead ranks' local
// array files are reconstructed offline from rotated parity, the dead
// ranks are respawned, and the program resumes from its last consistent
// checkpoint. The final arrays are bitwise identical to a failure-free
// run's. Each fired fault is pruned before the next attempt, so there
// are at most as many recoveries as scheduled deaths, and a disk that
// was lost is not lost again.
//
// The first attempt records into Options.Trace; each later one gets a
// fresh tracer that adopts the previous one's sink state, so aborted and
// successful timelines stay separate while a streaming consumer sees
// every attempt's spans and the caller's CloseSink ends the stream.
//
// Any other error, a loss without both protections, and a loss under a
// cancelled context (a cancelled job must not rebuild disks and relaunch
// itself) end the run.
func survive(ctx context.Context, l *Lowered, mach sim.Config, opts Options, manifests []*ckptManifest) (*Result, error) {
	var recs []Recovery
	var respawned []int
	var lost []mp.Fault
	var chaos iosim.ChaosCounts
	for {
		res, err := run(ctx, l, mach, opts, manifests, respawned)
		if err == nil {
			res.Attempts, res.Recoveries, res.Trace = len(recs)+1, recs, opts.Trace
			if lost != nil {
				res.DiskLosses = append(lost, res.DiskLosses...)
			}
			res.Chaos.Add(chaos)
			return res, nil
		}
		var rf *mp.RankFailure
		if !errors.As(err, &rf) || len(rf.Failed) == 0 {
			return nil, err
		}
		if opts.Checkpoint == nil || !opts.Parity {
			return nil, fmt.Errorf("exec: rank loss without checkpoint+parity protection is unrecoverable: %w", err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, errors.Join(cerr, err)
		}
		// Only a scheduled death kills a rank, and each one fired is
		// pruned below, so a failure that reports none is not survivable.
		killed := collectKilled(err, nil)
		if len(killed) == 0 {
			return nil, fmt.Errorf("exec: rank loss beyond the kill schedule: %w", err)
		}
		rec := Recovery{Failed: rf.Failed, Err: err, Stats: res.Stats, PerArray: res.PerArray, Trace: opts.Trace}
		sec, io, rerr := rebuildRanks(opts.FS, l, mach, opts, rf.Failed)
		rec.RebuildSeconds, rec.RebuildIO = sec, io
		recs = append(recs, rec)
		if rerr != nil {
			return nil, fmt.Errorf("exec: rebuilding ranks %v: %w", rf.Failed, errors.Join(rerr, err))
		}
		manifests, rerr = loadResumeManifests(opts.FS, opts.Checkpoint, l.prog.Procs)
		if errors.Is(rerr, ErrNoCheckpoint) {
			// Killed before the first commit: nothing to resume from, so
			// the next attempt restarts from scratch (deterministic, so
			// still bitwise identical to the failure-free run).
			manifests, rerr = nil, nil
		}
		if rerr != nil {
			return nil, fmt.Errorf("exec: resuming after losing ranks %v: %w", rf.Failed, errors.Join(rerr, err))
		}
		// The next attempt numbers its operations afresh: it must not
		// suffer the deaths and disk losses that fired in this one again.
		// The entries left over can still fire in it — a second kill
		// there injects a failure during recovery.
		lost = append(lost, res.DiskLosses...)
		chaos.Add(res.Chaos)
		opts.Faults = slices.DeleteFunc(slices.Clone(opts.Faults), func(f mp.Fault) bool {
			return slices.Contains(killed, f) || slices.Contains(res.DiskLosses, f)
		})
		respawned = rf.Failed
		if opts.Trace != nil {
			prev := opts.Trace
			opts.Trace = trace.NewTracer(l.prog.Procs)
			opts.Trace.AdoptSink(prev)
		}
	}
}

// collectKilled walks the whole error tree (single and multi unwrap),
// appending every injected kill to fired as the fault that fired;
// errors.As stops at the first.
func collectKilled(err error, fired []mp.Fault) []mp.Fault {
	if rk, ok := err.(*mp.RankKilledError); ok {
		fired = append(fired, mp.Fault{Rank: rk.Rank, Op: rk.Op})
	}
	switch x := err.(type) {
	case interface{ Unwrap() []error }:
		for _, e := range x.Unwrap() {
			fired = collectKilled(e, fired)
		}
	case interface{ Unwrap() error }:
		fired = collectKilled(x.Unwrap(), fired)
	}
	return fired
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
func rebuildRanks(fs iosim.FS, l *Lowered, mach sim.Config, opts Options, dead []int) (float64, trace.IOStats, error) {
	p := l.prog
	var io trace.IOStats
	st := parity.NewStore(fs, mach, p.Procs)
	st.SetPhantom(opts.Phantom)
	defer st.Detach()
	d := iosim.NewResilientDisk(fs, mach, &io, opts.Resilience)
	d.SetPhantom(opts.Phantom)

	// The failure domain is the whole logical disk: the dead ranks' data
	// files and hosted parity files are gone, whatever the backing store
	// still holds.
	for _, r := range dead {
		for _, spec := range p.Arrays {
			fs.Remove(oocarray.FileName(spec.Name, r))
			fs.Remove(parity.ParityFileName(spec.Name, r))
		}
	}
	for _, r := range dead {
		st.LoseDisk(r)
	}
	for i, spec := range l.code.Arrays {
		st.Protect(spec.Name)
		for _, sh := range l.shares[i*p.Procs : (i+1)*p.Procs] {
			st.Attach(sh.File, int64(sh.Rows)*int64(sh.Cols)*iosim.FileElemBytes)
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
			name := oocarray.FileName(base, r)
			rs, err := st.Recover(d, name, fmt.Errorf("rank %d fail-stop loss", r))
			sec += rs
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(errs) == 0 {
		// Each dead rank's disk is lost to the store, its hosted parity
		// files with it: recompute them so the restart begins fully
		// redundant.
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

package main

import (
	"context"
	"fmt"
	"reflect"

	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/serve"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// checks counts the output checks a run performed.
type checks struct {
	Arrays     int `json:"arrays"`      // result arrays compared with the in-core oracle
	Replies    int `json:"replies"`     // served replies compared with the direct run of their spec
	Replays    int `json:"replays"`     // idempotency keys replayed after a restart
	RoundTrips int `json:"round_trips"` // bytecode streams re-encoded byte-identically
}

func (c checks) String() string {
	return fmt.Sprintf("verified %d arrays, %d replies, %d replays, %d round-trips",
		c.Arrays, c.Replies, c.Replays, c.RoundTrips)
}

// Input fills. Values are small integers, so every product and sum the
// programs form is exact and the oracles compare with ==.
func fillSeq(n int) func(i, j int) float64 {
	return func(i, j int) float64 { return float64(i*n + j + 1) }
}
func fillX(i, j int) float64 { return float64(i%7 + 1) }
func fillY(i, j int) float64 { return float64(j%5 + 1) }

// fills returns the input arrays of a program kind by name.
func fills(kind string, n int) map[string]func(i, j int) float64 {
	switch kind {
	case kindGaxpy:
		return map[string]func(i, j int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}
	case kindTranspose:
		return map[string]func(i, j int) float64{"a": fillSeq(n)}
	default:
		return map[string]func(i, j int) float64{"x": fillX, "y": fillY}
	}
}

// expected is the in-core oracle: the result arrays of a program kind
// computed densely, without the compiler or the runtime.
func expected(kind string, n int) map[string]*matrix.Matrix {
	dense := func(f func(i, j int) float64) *matrix.Matrix { return matrix.New(n, n).Fill(f) }
	switch kind {
	case kindGaxpy:
		return map[string]*matrix.Matrix{"c": dense(gaxpy.CExpected(n))}
	case kindTranspose:
		a := fillSeq(n)
		return map[string]*matrix.Matrix{"b": dense(func(i, j int) float64 { return a(j, i) })}
	default:
		// z = alpha*x + y - 1 with alpha = 3, then w = z*x/2.
		z := dense(func(i, j int) float64 { return 3*fillX(i, j) + fillY(i, j) - 1 })
		w := dense(func(i, j int) float64 { return z.At(i, j) * fillX(i, j) / 2 })
		return map[string]*matrix.Matrix{"z": z, "w": w}
	}
}

// reference is the direct execution of one spec: what every served
// reply of that spec must equal. A compile_sweep tuple has only the
// compile artifact.
type reference struct {
	t     tuple
	art   artifact
	mach  sim.Config
	stats *trace.Stats
	snap  trace.Snapshot
}

// execOptions are the execution options of a spec, as the service
// derives them from a request that sets nothing but Phantom.
func (s jobSpec) execOptions() exec.Options {
	return exec.Options{Phantom: s.req.Phantom, Fill: fills(s.kind, s.req.N)}
}

// direct compiles and executes the spec without the service and checks
// its result arrays against the oracle.
func direct(s jobSpec, c *checks) (*reference, error) {
	art, err := pipeline(nil, 0, s.tuple())
	if err != nil {
		return nil, err
	}
	mach := sim.Delta(s.req.Procs)
	out, err := exec.Run(art.res.Program, mach, s.execOptions())
	if err != nil {
		return nil, err
	}
	defer out.Close()
	if !s.req.Phantom {
		for name, want := range expected(s.kind, s.req.N) {
			got, err := out.ReadArray(name)
			if err != nil {
				return nil, err
			}
			if !matrix.Equal(got, want) {
				return nil, fmt.Errorf("%s: array %s differs from the in-core oracle (max abs diff %g)",
					s.label(), name, matrix.MaxAbsDiff(got, want))
			}
			c.Arrays++
		}
	}
	return &reference{t: s.tuple(), art: art, mach: mach, stats: out.Stats, snap: out.Stats.Snapshot()}, nil
}

// verify runs after the timed work: each spec is executed directly,
// its arrays checked, and the first served reply of the spec (which
// every later reply was already required to equal) compared with the
// direct run. compile_sweep re-encodes every stream of its grid.
func (in *instance) verify(c *checks) ([]*reference, error) {
	if in.grid != nil {
		refs := make([]*reference, len(in.grid))
		for i, t := range in.grid {
			art, err := pipeline(nil, 0, t)
			if err == nil {
				err = roundTrip(art)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", t.label(), err)
			}
			c.RoundTrips++
			refs[i] = &reference{t: t, art: art}
		}
		return refs, nil
	}
	refs := make([]*reference, len(in.w.specs))
	for i, s := range in.w.specs {
		ref, err := direct(s, c)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
		got := in.first[i].Load()
		if got == nil {
			return nil, fmt.Errorf("%s: no job of this spec ran", s.label())
		}
		if got.SimSeconds != ref.snap.ElapsedSeconds || !reflect.DeepEqual(got.Stats, ref.snap) {
			return nil, fmt.Errorf("%s: served sim_seconds %v and stats differ from the direct run (%v)",
				s.label(), got.SimSeconds, ref.snap.ElapsedSeconds)
		}
		c.Replies++
	}
	return refs, nil
}

// replayCount is how many idempotency keys the restart check resubmits.
const replayCount = 50

// verifyReplay closes the journaled server, opens a new one over the
// same store and resubmits the last keys: each must come back as a
// replay of the original outcome. A run that skipped durability to go
// faster fails here.
func (in *instance) verifyReplay(c *checks) error {
	snap := in.srv.MetricsSnapshot()
	if snap.Journal == nil {
		return fmt.Errorf("journaled server reports no journal")
	}
	if snap.Journal.RecordsAppended < 3*snap.Completed {
		return fmt.Errorf("journal holds %d records for %d completed jobs, want at least 3 per job",
			snap.Journal.RecordsAppended, snap.Completed)
	}
	in.close()
	srv, err := serve.Open(serve.Config{Workers: in.w.workers, Journal: &serve.JournalConfig{FS: in.jfs}})
	if err != nil {
		return fmt.Errorf("reopening the journal: %w", err)
	}
	defer srv.Close()
	keys := in.keys
	if len(keys) > replayCount {
		keys = keys[len(keys)-replayCount:]
	}
	for _, k := range keys {
		req := in.w.specs[0].req // the key alone must identify the outcome
		req.IdempotencyKey = k.key
		got, err := srv.Submit(context.Background(), req)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", k.key, err)
		}
		if !got.Deduplicated || got.JobID != k.resp.JobID || !sameOutcome(got, k.resp) {
			return fmt.Errorf("replaying %s: got job %s (deduplicated=%t), want the original outcome of %s",
				k.key, got.JobID, got.Deduplicated, k.resp.JobID)
		}
		c.Replays++
	}
	return nil
}

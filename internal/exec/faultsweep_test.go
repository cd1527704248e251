package exec

import (
	"slices"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// sweepProgram compiles the small GAXPY instance used by the fault sweep.
func sweepProgram(t *testing.T) *compiler.Result {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 16, Procs: 2, MemElems: 100})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sweepFills() map[string]func(int, int) float64 {
	return map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}
}

// outage fails every file operation of rank from its op-th on.
func outage(rank int, op int64) mp.Fault {
	return mp.Fault{Rank: rank, Op: op, Kind: mp.IOOutage}
}

// fileOps returns each rank's file-operation count in the run opts make
// (on a fresh store, untraced): a run is the same up to its first fault,
// so an outage at op k fires exactly when k is below the count, which is
// therefore the least k whose outage never fires (bisection).
func fileOps(t *testing.T, p *plan.Program, mach sim.Config, opts Options) []int64 {
	t.Helper()
	counts := make([]int64, p.Procs)
	for r := range counts {
		fires := func(k int64) bool {
			o := opts
			o.FS, o.Trace = iosim.NewMemFS(), nil
			o.Faults = append(slices.Clone(opts.Faults), outage(r, k))
			out, err := Run(p, mach, o)
			if err != nil {
				return true
			}
			defer out.Close()
			return out.Chaos.Permanent > 0
		}
		lo, hi := int64(-1), int64(1)
		for fires(hi) {
			lo, hi = hi, 2*hi
		}
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; fires(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		counts[r] = hi
	}
	return counts
}

// TestFaultSweepEveryOpIndex runs the program under an outage of each
// rank's file operations from every op index k = 0..K_r on and asserts
// each run either completes with the correct result or fails with a
// clean error — never a hang (the test would time out) and never a
// corrupted success.
func TestFaultSweepEveryOpIndex(t *testing.T) {
	res := sweepProgram(t)
	mach := sim.Delta(res.Program.Procs)
	counts := fileOps(t, res.Program, mach, Options{Fill: sweepFills()})
	var total int64
	for _, c := range counts {
		total += c
	}
	if total < 100 {
		t.Fatalf("suspiciously few operations: %v", counts)
	}

	step := int64(1)
	if testing.Short() {
		step = 7
	}
	failures, pairs := 0, 0
	for r, c := range counts {
		for k := int64(0); k <= c; k += step {
			pairs++
			out, err := Run(res.Program, mach, Options{Fill: sweepFills(), Faults: []mp.Fault{outage(r, k)}})
			if err != nil {
				failures++
				if !strings.Contains(err.Error(), "exec:") {
					t.Fatalf("rank %d op %d: error lost the exec context: %v", r, k, err)
				}
				continue
			}
			// The outage never fired; the result must still be fully
			// correct.
			verifyC(t, out, res.Program.N)
			out.Close()
		}
	}
	if failures == 0 {
		t.Fatal("the sweep never failed; the op range is wrong")
	}
	t.Logf("%d (rank, op) outages over file-op counts %v", pairs, counts)
}

// TestFailedRunRemovesLocalArrayFiles fails a run with a single scheduled
// permanent fault (all other operations, including the cleanup removes,
// succeed) and asserts no local array files leak into the backing store.
func TestFailedRunRemovesLocalArrayFiles(t *testing.T) {
	res := sweepProgram(t)
	mach := sim.Delta(res.Program.Procs)
	mem := iosim.NewMemFS()
	_, err := Run(res.Program, mach, Options{FS: mem, Fill: sweepFills(),
		Faults: []mp.Fault{{Rank: 0, Op: 40, Kind: mp.IOPermanent}}})
	if err == nil {
		t.Fatal("the scheduled fault should have failed the run")
	}
	if names := mem.Names(); len(names) != 0 {
		t.Fatalf("failed run leaked files: %v", names)
	}
}

// TestResultCloseRemovesFiles checks the success-path cleanup.
func TestResultCloseRemovesFiles(t *testing.T) {
	res := sweepProgram(t)
	mach := sim.Delta(res.Program.Procs)
	mem := iosim.NewMemFS()
	out, err := Run(res.Program, mach, Options{FS: mem, Fill: sweepFills()})
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Names()) == 0 {
		t.Fatal("expected local array files before Close")
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if names := mem.Names(); len(names) != 0 {
		t.Fatalf("Close left files behind: %v", names)
	}
}

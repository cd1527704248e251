package experiments

import (
	"fmt"
	"strings"
	"sync"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/sim"
)

// The two-phase experiment (E9): out-of-core transpose compiled three
// ways — direct writes, sieved RMW writes, and two-phase collective
// staging — executed with real data movement under machine models that
// sweep the disk request overhead from the Delta's 15ms down to zero,
// plus the modern calibration. Per configuration it checks that
//
//   - all three methods produce bitwise identical destination files,
//   - the measured per-processor request counts, shuffle bytes and
//     scratch elements equal the closed forms of cost.TransposeCandidates
//     exactly, and
//   - the cost model's unforced selection is the measured winner.
//
// The headline number is the direct/two-phase request ratio at the
// default Delta calibration, where request overhead dominates.

// twoPhaseMethods fixes the candidate order (matching
// cost.TransposeCandidates) and the Force strings that pin each one.
var twoPhaseMethods = []string{"direct", "sieved", "two-phase"}

// TwoPhaseRow is one (regime, method) execution.
type TwoPhaseRow struct {
	Regime   string
	Procs    int
	Overhead float64 // disk request overhead, seconds
	Method   string
	Seconds  float64
	// PredReqs is the candidate's closed-form per-processor request
	// count; MeasReqs the traced count (src + dst + scratch).
	PredReqs, MeasReqs int64
	// PredShuffleBytes is the candidate's Comm.Elems in bytes;
	// MeasShuffleBytes the most any rank put on the all-to-all's wire.
	PredShuffleBytes, MeasShuffleBytes int64
	// PredScratch is the elements of the candidate's scratch tallies;
	// MeasScratch the most any rank's scratch file moved.
	PredScratch, MeasScratch int64
	Bitwise                  bool // destination equals the reference transpose
	Exact                    bool // every prediction equals its measurement
	Selected                 bool // the cost model's unforced choice
	Fastest                  bool // measured winner of the regime
}

// TwoPhaseResult is the full regime sweep.
type TwoPhaseResult struct {
	N, MemElems int
	Rows        []TwoPhaseRow
	// DirectOverTwoPhase is the request-count ratio at the first (default
	// Delta) regime — the order-of-magnitude reduction claim.
	DirectOverTwoPhase float64
}

// twoPhaseRegimes builds the request-overhead sweep: the Delta as
// calibrated, two cheaper-request variants, the bandwidth-bound limit
// (zero overhead, where direct's large sequential reads win back), and
// the modern machine.
func twoPhaseRegimes() []struct {
	name string
	mk   func(p int) sim.Config
} {
	scaled := func(f float64) func(p int) sim.Config {
		return func(p int) sim.Config {
			c := sim.Delta(p)
			c.DiskRequestOverhead *= f
			return c
		}
	}
	return []struct {
		name string
		mk   func(p int) sim.Config
	}{
		{"delta", sim.Delta},
		{"delta-o/100", scaled(0.01)},
		{"delta-o/1000", scaled(0.001)},
		{"delta-o=0", scaled(0)},
		{"modern", sim.Modern},
	}
}

// TwoPhase runs the sweep. Defaults: N=256 over 4 processors with a
// 16·N-element memory budget — small enough to execute with real data
// movement everywhere, large enough that the transpose is genuinely
// out of core (the budget holds 1/4 of one local array).
func TwoPhase(p Params) (*TwoPhaseResult, error) {
	if p.N == 0 {
		p.N = 256
	}
	if p.Procs == nil {
		p.Procs = []int{4}
	}
	n := p.N
	memElems := 16 * n
	res := &TwoPhaseResult{N: n, MemElems: memElems}

	fill := func(gi, gj int) float64 { return float64(gi*n + gj + 1) }
	want := matrix.New(n, n).Fill(func(i, j int) float64 { return fill(j, i) })

	for _, procs := range p.Procs {
		for _, regime := range twoPhaseRegimes() {
			mach := regime.mk(procs)

			// The unforced compile gives the cost model's selection and
			// the closed-form candidates in twoPhaseMethods order.
			free, err := compiler.CompileSource(hpf.TransposeSource, compiler.Options{
				N: n, Procs: procs, MemElems: memElems, Machine: mach, Runtime: p.Opts,
			})
			if err != nil {
				return nil, err
			}

			rows := make([]TwoPhaseRow, len(twoPhaseMethods))
			fastest := 0
			for mi, method := range twoPhaseMethods {
				cres, err := compiler.CompileSource(hpf.TransposeSource, compiler.Options{
					N: n, Procs: procs, MemElems: memElems, Machine: mach, Force: method, Runtime: p.Opts,
				})
				if err != nil {
					return nil, err
				}
				fs := &scratchCount{FS: iosim.NewMemFS(), elems: map[string]int64{}}
				out, err := exec.Run(cres.Program, mach, exec.Options{
					FS:   fs,
					Fill: map[string]func(gi, gj int) float64{free.Analysis.Transpose.Src: fill},
				})
				if err != nil {
					return nil, err
				}
				got, err := out.ReadArray(free.Analysis.Transpose.Dst)
				if err != nil {
					return nil, err
				}
				meas := out.MaxArrayIO(free.Analysis.Transpose.Src).Requests() +
					out.MaxArrayIO(free.Analysis.Transpose.Dst).Requests()
				out.Close()

				cand := cres.Candidates[mi]
				row := TwoPhaseRow{
					Regime:           regime.name,
					Procs:            procs,
					Overhead:         mach.DiskRequestOverhead,
					Method:           method,
					Seconds:          out.Stats.ElapsedSeconds(),
					PredReqs:         cand.TotalRequests(),
					MeasReqs:         meas,
					PredShuffleBytes: cand.Comm.Elems * int64(mach.ElemSize),
					MeasScratch:      fs.max(),
					Bitwise:          matrix.Equal(got, want),
					Selected:         mi == free.Chosen,
				}
				for _, ps := range out.Stats.Procs {
					row.MeasShuffleBytes = max(row.MeasShuffleBytes, ps.Comm.ShuffleBytes)
				}
				for _, tl := range cand.Tallies {
					if tl.Array == "scratch" {
						row.PredScratch += tl.Elems
					}
				}
				row.Exact = row.PredReqs == row.MeasReqs && row.PredShuffleBytes == row.MeasShuffleBytes &&
					row.PredScratch == row.MeasScratch
				rows[mi] = row
				if rows[mi].Seconds < rows[fastest].Seconds {
					fastest = mi
				}
			}
			// Ties (within float noise) count as a win for the selection.
			min := rows[fastest].Seconds
			for mi := range rows {
				rows[mi].Fastest = rows[mi].Seconds <= min*(1+1e-9)+1e-12
			}
			res.Rows = append(res.Rows, rows...)
		}
	}

	if r := res.find(p.Procs[0], "delta"); r != nil {
		direct, two := r[0].MeasReqs, r[2].MeasReqs
		if two > 0 {
			res.DirectOverTwoPhase = float64(direct) / float64(two)
		}
	}
	return res, nil
}

// find returns the three method rows of one (procs, regime) cell.
func (r *TwoPhaseResult) find(procs int, regime string) []TwoPhaseRow {
	for i := 0; i+len(twoPhaseMethods) <= len(r.Rows); i += len(twoPhaseMethods) {
		if r.Rows[i].Procs == procs && r.Rows[i].Regime == regime {
			return r.Rows[i : i+len(twoPhaseMethods)]
		}
	}
	return nil
}

// AllBitwise reports whether every execution reproduced the reference
// transpose exactly.
func (r *TwoPhaseResult) AllBitwise() bool {
	for _, row := range r.Rows {
		if !row.Bitwise {
			return false
		}
	}
	return true
}

// AllExact reports whether every measured request count, shuffle volume
// and scratch volume equals its closed form.
func (r *TwoPhaseResult) AllExact() bool {
	for _, row := range r.Rows {
		if !row.Exact {
			return false
		}
	}
	return true
}

// SelectionAgrees reports whether, in every regime, the cost model's
// choice is (one of) the measured fastest method(s).
func (r *TwoPhaseResult) SelectionAgrees() bool {
	for _, row := range r.Rows {
		if row.Selected && !row.Fastest {
			return false
		}
	}
	return true
}

// Format renders the sweep.
func (r *TwoPhaseResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Two-phase collective I/O: %dx%d out-of-core transpose, mem=%d elems, real execution\n",
		r.N, r.N, r.MemElems)
	fmt.Fprintf(&b, "%-14s %-4s %10s %-10s %10s %10s %11s %11s %10s %10s %10s %8s %6s %s\n",
		"regime", "P", "overhead", "method", "pred reqs", "meas reqs", "pred shufB", "meas shufB",
		"pred scr", "meas scr", "sim time", "bitwise", "exact", "")
	for _, row := range r.Rows {
		mark := ""
		if row.Selected {
			mark = " [selected]"
		}
		if row.Fastest {
			mark += " [fastest]"
		}
		fmt.Fprintf(&b, "%-14s %-4d %9.0fus %-10s %10d %10d %11d %11d %10d %10d %9.3fs %8v %6v%s\n",
			row.Regime, row.Procs, row.Overhead*1e6, row.Method, row.PredReqs, row.MeasReqs,
			row.PredShuffleBytes, row.MeasShuffleBytes, row.PredScratch, row.MeasScratch,
			row.Seconds, row.Bitwise, row.Exact, mark)
	}
	fmt.Fprintf(&b, "direct/two-phase request ratio at delta calibration: %.1fx (>=10x: %v)\n",
		r.DirectOverTwoPhase, r.DirectOverTwoPhase >= 10)
	fmt.Fprintf(&b, "all bitwise identical: %v, all counts exact: %v, selection matches measured winner: %v\n",
		r.AllBitwise(), r.AllExact(), r.SelectionAgrees())
	return b.String()
}

// CSV renders the sweep for plotting.
func (r *TwoPhaseResult) CSV() string {
	var b strings.Builder
	b.WriteString("regime,procs,overhead_us,method,pred_requests,meas_requests,pred_shuffle_bytes,meas_shuffle_bytes,pred_scratch_elems,meas_scratch_elems,seconds,selected,fastest\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%d,%.1f,%s,%d,%d,%d,%d,%d,%d,%.6f,%v,%v\n",
			row.Regime, row.Procs, row.Overhead*1e6, row.Method, row.PredReqs, row.MeasReqs,
			row.PredShuffleBytes, row.MeasShuffleBytes, row.PredScratch, row.MeasScratch,
			row.Seconds, row.Selected, row.Fastest)
	}
	return b.String()
}

// scratchCount is a file store that counts the elements every two-phase
// scratch file moves, by name: the measured side of the scratch tallies.
type scratchCount struct {
	iosim.FS
	mu    sync.Mutex
	elems map[string]int64
}

func (c *scratchCount) Create(name string) (iosim.File, error) { return c.wrap(name, c.FS.Create) }
func (c *scratchCount) Open(name string) (iosim.File, error)   { return c.wrap(name, c.FS.Open) }

func (c *scratchCount) wrap(name string, open func(string) (iosim.File, error)) (iosim.File, error) {
	f, err := open(name)
	if err != nil || !strings.Contains(name, ".collio.scratch") {
		return f, err
	}
	return &countedFile{File: f, c: c, name: name}, nil
}

// max returns the most elements one rank's scratch file moved.
func (c *scratchCount) max() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var most int64
	for _, n := range c.elems {
		most = max(most, n)
	}
	return most
}

type countedFile struct {
	iosim.File
	c    *scratchCount
	name string
}

func (f *countedFile) count(n int) {
	f.c.mu.Lock()
	f.c.elems[f.name] += int64(n / 8)
	f.c.mu.Unlock()
}

func (f *countedFile) ReadAt(p []byte, off int64) (int, error) {
	f.count(len(p))
	return f.File.ReadAt(p, off)
}

func (f *countedFile) WriteAt(p []byte, off int64) (int, error) {
	f.count(len(p))
	return f.File.WriteAt(p, off)
}

package experiments

import (
	"fmt"
	"strings"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/cost"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

// The disksurvival experiment: parity-protected runs losing an entire
// logical disk at swept injection points. For a compiled GAXPY (column
// slab) and an out-of-core transpose (two-phase collective I/O), rank
// 1's disk is lost (mp.LoseDisk) at a sweep of its operation indices,
// the coordinate rank deaths use, so each row is one point the machine
// orders; every injected run must complete with output bitwise identical
// to the fault-free run, and the sweep must surface reconstruction
// traffic in the counters. Two closed-form gates ride along: the
// fault-free protected GAXPY run's parity counters must equal
// cost.ParityForStream exactly, and the same disk loss without parity
// must fail the run instead of corrupting it.

// DiskSurvivalRow is one injected execution.
type DiskSurvivalRow struct {
	Program string // "gaxpy" or "transpose"
	Victim  int    // the rank whose logical disk is lost
	Op      int64  // the victim's operation index of the injection
	Bitwise bool   // output equals the fault-free run
	// Recovery counters observed for the run.
	Reconstructions    int64
	ReconstructedBytes int64
	RecoveryMessages   int64
	ParityRebuilds     int64
	Degraded           bool
	Err                string // non-empty when the run failed
}

// DiskSurvivalResult is the full sweep plus the closed-form gates.
type DiskSurvivalResult struct {
	N, Procs int
	Rows     []DiskSurvivalRow
	// Pred/Meas compare the fault-free protected GAXPY run's parity
	// counters against the cost model's closed forms; ParityExact is
	// their field-by-field equality.
	Pred, Meas  cost.ParityOverhead
	ParityExact bool
	// UnprotectedFailed records that the same disk loss without parity
	// failed the run (with UnprotectedErr as evidence) instead of
	// completing on lost data.
	UnprotectedFailed bool
	UnprotectedErr    string
}

// survivalPolicy is the retry budget of the injected runs: small, so a
// permanent loss escalates to reconstruction quickly.
var survivalPolicy = iosim.RetryPolicy{MaxRetries: 3, BaseBackoff: 1e-3, MaxBackoff: 4e-3}

// survivalPoints spreads about count injection indices over [0, total).
func survivalPoints(total int64, count int64) []int64 {
	if total <= 0 {
		return nil
	}
	step := total / count
	if step < 1 {
		step = 1
	}
	var pts []int64
	for k := int64(0); k < total; k += step {
		pts = append(pts, k)
	}
	return pts
}

// DiskSurvival runs the sweep. Defaults: N=256 on 4 processors under the
// Delta calibration.
func DiskSurvival(p Params) (*DiskSurvivalResult, error) {
	n := p.N
	if n == 0 {
		n = 256
	}
	procs := 4
	if len(p.Procs) > 0 {
		procs = p.Procs[0]
	}
	machine := p.Machine
	if machine == nil {
		machine = sim.Delta
	}
	mach := machine(procs)
	res := &DiskSurvivalResult{N: n, Procs: procs}

	// ------------------------------------------------------------------
	// GAXPY, column-slab: the output array c is written as a stream of
	// contiguous full-height staging slabs, so the parity overhead has an
	// exact closed form.
	cres, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: n, Procs: procs, MemElems: 12 * n, Machine: mach, Force: "column-slab", Runtime: p.Opts,
	})
	if err != nil {
		return nil, err
	}
	fills := map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}

	// The fault-free protected probe's parity counters are checked
	// against the closed form.
	const victim = 1
	want, pr, counts, err := survivalBaseline(cres, mach, fills, "c")
	if err != nil {
		return nil, err
	}
	io := pr.Stats.TotalIO()
	res.Meas = cost.ParityOverhead{
		Reads: io.ParityReads, Writes: io.ParityWrites,
		BytesRead: io.ParityBytesRead, BytesWritten: io.ParityBytesWritten,
	}
	res.Pred, err = gaxpyParityClosedForm(cres, mach, procs)
	if err != nil {
		return nil, err
	}
	res.ParityExact = res.Pred == res.Meas
	pr.Close()

	// Unprotected control: the same loss without parity must fail fast.
	uopts := survivalOptions(fills, false, nil)
	uopts.Faults = []mp.Fault{{Rank: victim, Op: counts[victim] / 2, Kind: mp.LoseDisk}}
	_, uerr := exec.Run(cres.Program, mach, uopts)
	res.UnprotectedFailed = uerr != nil
	if uerr != nil {
		res.UnprotectedErr = uerr.Error()
	}

	// The injection sweep.
	for _, k := range survivalPoints(counts[victim], 8) {
		res.Rows = append(res.Rows, runSurvival("gaxpy", cres, mach, fills, "c", want, victim, k))
	}

	// ------------------------------------------------------------------
	// Transpose, two-phase collective I/O with an in-memory shuffle
	// window (ample memory budget, so no unprotected scratch files are in
	// the failure domain).
	tres, err := compiler.CompileSource(hpf.TransposeSource, compiler.Options{
		N: n, Procs: procs, MemElems: n * n, Machine: mach, Force: "two-phase", Runtime: p.Opts,
	})
	if err != nil {
		return nil, err
	}
	src, dst := tres.Analysis.Transpose.Src, tres.Analysis.Transpose.Dst
	tfill := func(gi, gj int) float64 { return float64(gi*n + gj + 1) }
	tfills := map[string]func(int, int) float64{src: tfill}
	wantT, tpr, tcounts, err := survivalBaseline(tres, mach, tfills, dst)
	if err != nil {
		return nil, err
	}
	tpr.Close()
	for _, k := range survivalPoints(tcounts[victim], 6) {
		res.Rows = append(res.Rows, runSurvival("transpose", tres, mach, tfills, dst, wantT, victim, k))
	}
	return res, nil
}

// survivalBaseline runs a kernel fault-free twice: unprotected, for the
// output every row must reproduce, and protected, counting each rank's
// operations (the sweep's coordinate). The caller closes the protected
// result.
func survivalBaseline(cres *compiler.Result, mach sim.Config, fills map[string]func(int, int) float64,
	out string) (*matrix.Matrix, *exec.Result, []int64, error) {
	base, err := exec.Run(cres.Program, mach, exec.Options{Fill: fills})
	if err != nil {
		return nil, nil, nil, err
	}
	want, err := base.ReadArray(out)
	base.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	counts := make([]int64, cres.Program.Procs)
	pr, err := exec.Run(cres.Program, mach, survivalOptions(fills, true, counts))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("disksurvival: fault-free protected run: %w", err)
	}
	got, err := pr.ReadArray(out)
	if err == nil && !matrix.Equal(got, want) {
		err = fmt.Errorf("disksurvival: fault-free protected run diverged from unprotected run")
	}
	if err != nil {
		pr.Close()
		return nil, nil, nil, err
	}
	return want, pr, counts, nil
}

// survivalOptions is the configuration of the experiment's runs: a
// fresh store, the small retry budget, parity when protected, and the
// per-rank op counts when counts is non-nil.
func survivalOptions(fills map[string]func(int, int) float64, protected bool, counts []int64) exec.Options {
	return exec.Options{
		FS: iosim.NewMemFS(), Fill: fills,
		Resilience: iosim.NewResilience(survivalPolicy), Parity: protected,
		OpCounts: counts,
	}
}

// gaxpyParityClosedForm predicts the parity overhead of the column-slab
// GAXPY's write stream: each processor writes its whole local piece of c
// once, as contiguous slabs of (local rows x slab width) elements.
func gaxpyParityClosedForm(cres *compiler.Result, mach sim.Config, procs int) (cost.ParityOverhead, error) {
	spec, ok := cres.Program.Array("c")
	if !ok {
		return cost.ParityOverhead{}, fmt.Errorf("disksurvival: compiled GAXPY has no array c")
	}
	dm, err := spec.DistArray(procs)
	if err != nil {
		return cost.ParityOverhead{}, err
	}
	shape := dm.LocalShape(0)
	rows, cols := shape[0], shape[1]
	width := spec.SlabElems / rows
	if width < 1 {
		width = 1
	}
	if width > cols {
		width = cols
	}
	per := cost.ParityForStream(mach, procs, int64(rows*cols), int64(rows*width))
	return per.Scale(int64(procs)), nil
}

// runSurvival executes one injected run and collects its row.
func runSurvival(program string, cres *compiler.Result, mach sim.Config,
	fills map[string]func(int, int) float64, outArray string, want *matrix.Matrix,
	victim int, op int64) DiskSurvivalRow {

	row := DiskSurvivalRow{Program: program, Victim: victim, Op: op}
	opts := survivalOptions(fills, true, nil)
	opts.Faults = []mp.Fault{{Rank: victim, Op: op, Kind: mp.LoseDisk}}
	out, err := exec.Run(cres.Program, mach, opts)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	if len(out.DiskLosses) == 0 {
		row.Err = "scheduled disk loss never fired"
		return row
	}
	got, err := out.ReadArray(outArray)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Bitwise = matrix.Equal(got, want)
	io := out.Stats.TotalIO()
	row.Reconstructions = io.Reconstructions
	row.ReconstructedBytes = io.ReconstructedBytes
	row.ParityRebuilds = io.ParityRebuilds
	row.RecoveryMessages = out.Stats.TotalComm().RecoveryMessages
	if ps := out.ParityStore(); ps != nil {
		row.Degraded = ps.Degraded()
	}
	out.Close()
	return row
}

// AllBitwise reports whether every injected run completed with output
// bitwise identical to the fault-free run.
func (r *DiskSurvivalResult) AllBitwise() bool {
	for _, row := range r.Rows {
		if row.Err != "" || !row.Bitwise {
			return false
		}
	}
	return true
}

// Reconstructed reports whether the sweep for the named program surfaced
// reconstruction traffic (losses injected after a file's last access are
// repaired by the verification read outside the accounted run, so the
// presence gate is per sweep, not per row).
func (r *DiskSurvivalResult) Reconstructed(program string) bool {
	var recon, msgs int64
	for _, row := range r.Rows {
		if row.Program == program {
			recon += row.Reconstructions
			msgs += row.RecoveryMessages
		}
	}
	return recon > 0 && msgs > 0
}

// Gate returns an error describing the first violated acceptance
// property, or nil when the experiment passes.
func (r *DiskSurvivalResult) Gate() error {
	if !r.ParityExact {
		return fmt.Errorf("parity counters diverge from closed form: predicted %+v, measured %+v", r.Pred, r.Meas)
	}
	if !r.UnprotectedFailed {
		return fmt.Errorf("disk loss without parity completed instead of failing")
	}
	for _, row := range r.Rows {
		if row.Err != "" {
			return fmt.Errorf("%s op %d: %s", row.Program, row.Op, row.Err)
		}
		if !row.Bitwise {
			return fmt.Errorf("%s op %d: output diverged from fault-free run", row.Program, row.Op)
		}
	}
	for _, program := range []string{"gaxpy", "transpose"} {
		if !r.Reconstructed(program) {
			return fmt.Errorf("%s sweep surfaced no reconstruction traffic", program)
		}
	}
	return nil
}

// Format renders the sweep.
func (r *DiskSurvivalResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Disk survival: %dx%d arrays on %d processors, one logical disk lost per run\n", r.N, r.N, r.Procs)
	fmt.Fprintf(&b, "%-10s %-12s %8s %8s %8s %10s %10s %8s %9s\n",
		"program", "victim disk", "op", "bitwise", "reconst", "rec bytes", "rec msgs", "rebuilds", "degraded")
	for _, row := range r.Rows {
		if row.Err != "" {
			fmt.Fprintf(&b, "%-10s %-12d %8d FAILED: %s\n", row.Program, row.Victim, row.Op, row.Err)
			continue
		}
		fmt.Fprintf(&b, "%-10s %-12d %8d %8v %8d %10d %10d %8d %9v\n",
			row.Program, row.Victim, row.Op, row.Bitwise, row.Reconstructions,
			row.ReconstructedBytes, row.RecoveryMessages, row.ParityRebuilds, row.Degraded)
	}
	fmt.Fprintf(&b, "parity overhead closed form: predicted %d+%d reqs %d+%d bytes, measured %d+%d reqs %d+%d bytes, exact: %v\n",
		r.Pred.Reads, r.Pred.Writes, r.Pred.BytesRead, r.Pred.BytesWritten,
		r.Meas.Reads, r.Meas.Writes, r.Meas.BytesRead, r.Meas.BytesWritten, r.ParityExact)
	fmt.Fprintf(&b, "unprotected control failed as required: %v\n", r.UnprotectedFailed)
	fmt.Fprintf(&b, "all bitwise identical: %v, reconstruction traffic: gaxpy=%v transpose=%v\n",
		r.AllBitwise(), r.Reconstructed("gaxpy"), r.Reconstructed("transpose"))
	return b.String()
}

// CSV renders the sweep for plotting.
func (r *DiskSurvivalResult) CSV() string {
	var b strings.Builder
	b.WriteString("program,victim,op,bitwise,reconstructions,reconstructed_bytes,recovery_messages,parity_rebuilds,degraded,err\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%d,%d,%v,%d,%d,%d,%d,%v,%s\n",
			row.Program, row.Victim, row.Op, row.Bitwise, row.Reconstructions,
			row.ReconstructedBytes, row.RecoveryMessages, row.ParityRebuilds, row.Degraded,
			strings.ReplaceAll(row.Err, ",", ";"))
	}
	return b.String()
}

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
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// The disksurvival experiment: parity-protected runs losing an entire
// logical disk at swept injection points. For a compiled GAXPY (column
// slab) and an out-of-core transpose (two-phase collective I/O), a
// KindDiskLoss fault is scheduled at a sweep of per-file operation
// indices on one victim file; every injected run must complete with
// output bitwise identical to the fault-free run, and the sweep must
// surface reconstruction traffic in the counters. Two closed-form gates
// ride along: the fault-free protected GAXPY run's parity counters must
// equal cost.ParityForStream exactly, and the same disk loss without
// parity must fail the run instead of corrupting it.

// DiskSurvivalRow is one injected execution.
type DiskSurvivalRow struct {
	Program string // "gaxpy" or "transpose"
	Victim  string // the file whose disk is lost
	Op      int64  // per-file operation index of the injection
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

	base, err := exec.Run(cres.Program, mach, exec.Options{Fill: fills})
	if err != nil {
		return nil, err
	}
	want, err := base.ReadArray("c")
	if err != nil {
		return nil, err
	}
	base.Close()

	// Fault-free protected probe: measures the victim's operation count
	// for the injection sweep and checks the parity counters against the
	// closed form.
	victim := "c.p1.laf"
	probe := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{})
	pr, err := exec.Run(cres.Program, mach, exec.Options{
		FS: probe, Fill: fills,
		Resilience: iosim.NewResilience(survivalPolicy), Parity: true,
	})
	if err != nil {
		return nil, fmt.Errorf("disksurvival: fault-free protected run: %w", err)
	}
	totalOps := probe.FileOps(victim)
	got, err := pr.ReadArray("c")
	if err != nil {
		return nil, err
	}
	if !matrix.Equal(got, want) {
		return nil, fmt.Errorf("disksurvival: fault-free protected run diverged from unprotected run")
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
	uop := totalOps / 2
	uchaos := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{
		Schedule: []iosim.ScheduledFault{{File: victim, Op: uop, Kind: iosim.KindDiskLoss}},
	})
	_, uerr := exec.Run(cres.Program, mach, exec.Options{
		FS: uchaos, Fill: fills,
		Resilience: iosim.NewResilience(survivalPolicy),
	})
	res.UnprotectedFailed = uerr != nil
	if uerr != nil {
		res.UnprotectedErr = uerr.Error()
	}

	// The injection sweep.
	for _, k := range survivalPoints(totalOps, 8) {
		row := runSurvival("gaxpy", cres, mach, fills, "c", want, victim, k, p)
		res.Rows = append(res.Rows, row)
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

	tbase, err := exec.Run(tres.Program, mach, exec.Options{Fill: tfills})
	if err != nil {
		return nil, err
	}
	wantT, err := tbase.ReadArray(dst)
	if err != nil {
		return nil, err
	}
	tbase.Close()

	tvictim := oocarray.FileName(dst, 1)
	tprobe := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{})
	tpr, err := exec.Run(tres.Program, mach, exec.Options{
		FS: tprobe, Fill: tfills,
		Resilience: iosim.NewResilience(survivalPolicy), Parity: true,
	})
	if err != nil {
		return nil, fmt.Errorf("disksurvival: fault-free protected transpose: %w", err)
	}
	totalT := tprobe.FileOps(tvictim)
	tpr.Close()

	for _, k := range survivalPoints(totalT, 6) {
		row := runSurvival("transpose", tres, mach, tfills, dst, wantT, tvictim, k, p)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
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
	victim string, op int64, p Params) DiskSurvivalRow {

	row := DiskSurvivalRow{Program: program, Victim: victim, Op: op}
	chaos := iosim.NewChaosFS(iosim.NewMemFS(), iosim.ChaosConfig{
		Schedule: []iosim.ScheduledFault{{File: victim, Op: op, Kind: iosim.KindDiskLoss}},
	})
	out, err := exec.Run(cres.Program, mach, exec.Options{
		FS: chaos, Fill: fills,
		Resilience: iosim.NewResilience(survivalPolicy), Parity: true,
	})
	if err != nil {
		row.Err = err.Error()
		return row
	}
	if chaos.Counts().DiskLosses == 0 {
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
		"program", "victim", "op", "bitwise", "reconst", "rec bytes", "rec msgs", "rebuilds", "degraded")
	for _, row := range r.Rows {
		if row.Err != "" {
			fmt.Fprintf(&b, "%-10s %-12s %8d FAILED: %s\n", row.Program, row.Victim, row.Op, row.Err)
			continue
		}
		fmt.Fprintf(&b, "%-10s %-12s %8d %8v %8d %10d %10d %8d %9v\n",
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
		fmt.Fprintf(&b, "%s,%s,%d,%v,%d,%d,%d,%d,%v,%s\n",
			row.Program, row.Victim, row.Op, row.Bitwise, row.Reconstructions,
			row.ReconstructedBytes, row.RecoveryMessages, row.ParityRebuilds, row.Degraded,
			strings.ReplaceAll(row.Err, ",", ";"))
	}
	return b.String()
}

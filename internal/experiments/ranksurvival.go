package experiments

import (
	"fmt"
	"sort"
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
	"github.com/ooc-hpf/passion/internal/trace"
)

// The ranksurvival experiment: fail-stop rank losses injected at swept
// operation indices, survived end to end. For three compiled kernels
// (GAXPY, two-phase transpose, and a column stencil), one rank is killed
// between two counted operations (messages and local array chunk I/O);
// the survivors detect the death via simulated-clock heartbeats, report
// the machine's failed set, and abort; the dead rank's logical
// disk is rebuilt offline from rotated parity; and the run resumes from
// its last two-slot checkpoint. Every injected run must finish with
// output bitwise identical to the failure-free run, both attempts' span
// timelines must reconcile exactly against their statistics, the
// detect/agree/respawn/reconstruct counters must be exact, and the
// rebuild seconds must equal the cost model's closed form to the digit.
// A control without checkpoint+parity protection must die instead.

// ranksurvivalStencil is a column stencil whose shifted references cross
// the BLOCK boundaries, compiled at the experiment's N.
const ranksurvivalStencil = `parameter (n=64, nprocs=4)
real x(n,n), z(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: x, z
FORALL (k=2:n-1)
  z(1:n,k) = (x(1:n,k-1) + 2*x(1:n,k) + x(1:n,k+1)) / 4
end FORALL
end
`

// RankSurvivalRow is one injected rank loss.
type RankSurvivalRow struct {
	Program string // "gaxpy", "transpose" or "stencil"
	Victim  int    // the killed rank
	Op      int64  // the victim's op index at which it dies
	Bitwise bool   // output equals the failure-free run
	// Recovery counters of the survived loss.
	Attempts        int
	Detections      int64
	Agreements      int64
	Respawns        int64
	Reconstructions int64
	RebuildSeconds  float64
	PredSeconds     float64 // the closed-form rebuild time for this victim
	RebuildExact    bool    // RebuildSeconds equals PredSeconds exactly
	Reconciled      bool    // both attempts' spans replay to their statistics
	Err             string
}

// RankSurvivalResult is the full sweep plus the unprotected control.
type RankSurvivalResult struct {
	N, Procs int
	Rows     []RankSurvivalRow
	// UnprotectedFailed records that the same kill without
	// checkpoint+parity failed the run instead of completing.
	UnprotectedFailed bool
	UnprotectedErr    string
}

// rankKernel bundles one compiled kernel of the sweep.
type rankKernel struct {
	name  string
	cres  *compiler.Result
	fills map[string]func(int, int) float64
	out   string
	want  *matrix.Matrix
	// groups holds per array (in sorted base order, matching the rebuild
	// pre-pass) the per-rank file sizes, feeding the closed-form recovery
	// prediction. The rotated parity layout makes the prediction depend
	// on which rank dies, so it is computed per victim.
	groups [][]int64
}

// RankSurvival runs the sweep. Defaults: N=96 on 4 processors under the
// Delta calibration.
func RankSurvival(p Params) (*RankSurvivalResult, error) {
	n := p.N
	if n == 0 {
		n = 96
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
	res := &RankSurvivalResult{N: n, Procs: procs}

	tfill := func(gi, gj int) float64 { return float64(gi*n + gj + 1) }
	sfill := func(gi, gj int) float64 { return float64(4 * (gi%6 + 3*(gj%5))) }

	specs := []struct {
		name   string
		source string
		copts  compiler.Options
		fills  map[string]func(int, int) float64
		out    string // "" means take it from the transpose analysis
	}{
		{"gaxpy", hpf.GaxpySource,
			compiler.Options{N: n, Procs: procs, MemElems: 12 * n, Machine: mach, Force: "column-slab"},
			map[string]func(int, int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}, "c"},
		{"transpose", hpf.TransposeSource,
			compiler.Options{N: n, Procs: procs, MemElems: n * n, Machine: mach, Force: "two-phase"},
			nil, ""},
		{"stencil", ranksurvivalStencil,
			compiler.Options{N: n, Procs: procs, MemElems: 8 * n, Machine: mach},
			map[string]func(int, int) float64{"x": sfill}, "z"},
	}

	var kernels []rankKernel
	for _, sp := range specs {
		cres, err := compiler.CompileSource(sp.source, sp.copts)
		if err != nil {
			return nil, fmt.Errorf("ranksurvival: compile %s: %w", sp.name, err)
		}
		k := rankKernel{name: sp.name, cres: cres, fills: sp.fills, out: sp.out}
		if k.out == "" {
			src, dst := cres.Analysis.Transpose.Src, cres.Analysis.Transpose.Dst
			k.fills = map[string]func(int, int) float64{src: tfill}
			k.out = dst
		}
		base, err := exec.Run(cres.Program, mach, exec.Options{Fill: k.fills, Runtime: p.Opts})
		if err != nil {
			return nil, fmt.Errorf("ranksurvival: failure-free %s: %w", sp.name, err)
		}
		k.want, err = base.ReadArray(k.out)
		if err != nil {
			return nil, err
		}
		base.Close()
		kernels = append(kernels, k)
	}

	for ki := range kernels {
		k := &kernels[ki]
		// Probe the protected configuration's op space: the same
		// checkpoint+parity options the injected runs use, so the
		// counted op indices line up exactly.
		counts := make([]int64, procs)
		opts := rankSurvivalOptions(k, p)
		opts.OpCounts = counts
		probe, err := exec.Run(k.cres.Program, mach, opts)
		if err != nil {
			return nil, fmt.Errorf("ranksurvival: %s probe: %w", k.name, err)
		}
		probe.Close()

		k.groups, err = rankSurvivalGroups(k.cres, procs)
		if err != nil {
			return nil, err
		}

		// Sweep rank 1 across its op space, and kill every other rank
		// once at its midpoint, so each rank is lost at least once.
		for _, op := range survivalPoints(counts[1], 5) {
			res.Rows = append(res.Rows, runRankSurvival(k, mach, 1, op, p))
		}
		for r := 0; r < procs; r++ {
			if r == 1 {
				continue
			}
			res.Rows = append(res.Rows, runRankSurvival(k, mach, r, counts[r]/2, p))
		}
	}

	// The unprotected control: same kill, no checkpoint, no parity.
	g := kernels[0]
	_, uerr := exec.Run(g.cres.Program, mach, exec.Options{
		Fill: g.fills, Runtime: p.Opts,
		Kill: []mp.KillSpec{{Rank: 1, Op: 40}},
	})
	res.UnprotectedFailed = uerr != nil
	if uerr != nil {
		res.UnprotectedErr = uerr.Error()
	}
	return res, nil
}

// rankSurvivalOptions is the protected configuration of one injected run.
func rankSurvivalOptions(k *rankKernel, p Params) exec.Options {
	return exec.Options{
		FS: iosim.NewMemFS(), Fill: k.fills, Runtime: p.Opts,
		Checkpoint: &exec.CheckpointSpec{Every: 1},
		Parity:     true,
		Resilience: iosim.NewResilience(survivalPolicy),
	}
}

// rankSurvivalGroups lists, per protected array in sorted base order
// (matching the executor's rebuild pre-pass), the per-rank local file
// sizes — the input to the closed-form recovery prediction.
func rankSurvivalGroups(cres *compiler.Result, procs int) ([][]int64, error) {
	names := make([]string, 0, len(cres.Program.Arrays))
	for _, spec := range cres.Program.Arrays {
		names = append(names, spec.Name)
	}
	sort.Strings(names)
	var groups [][]int64
	for _, name := range names {
		spec, _ := cres.Program.Array(name)
		dm, err := spec.DistArray(procs)
		if err != nil {
			return nil, err
		}
		sizes := make([]int64, procs)
		for r := 0; r < procs; r++ {
			sizes[r] = int64(dm.LocalElems(r)) * iosim.FileElemBytes
		}
		groups = append(groups, sizes)
	}
	return groups, nil
}

// runRankSurvival executes one injected loss and collects its row.
func runRankSurvival(k *rankKernel, mach sim.Config, victim int, op int64, p Params) RankSurvivalRow {
	row := RankSurvivalRow{Program: k.name, Victim: victim, Op: op}
	pred := cost.RecoveryForRank(mach, len(k.groups[0]), k.groups, victim, sim.DetectionTimeout)
	row.PredSeconds = pred.RebuildSeconds
	opts := rankSurvivalOptions(k, p)
	opts.Kill = []mp.KillSpec{{Rank: victim, Op: op}}
	opts.Trace = trace.NewTracer(k.cres.Program.Procs)
	out, err := exec.RunResilient(k.cres.Program, mach, opts, 1)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Attempts = out.Attempts
	if len(out.Recoveries) != 1 {
		row.Err = fmt.Sprintf("recoveries = %d, want 1", len(out.Recoveries))
		return row
	}
	rec := out.Recoveries[0]
	if len(rec.Failed) != 1 || rec.Failed[0] != victim {
		row.Err = fmt.Sprintf("agreed failed set %v, want [%d]", rec.Failed, victim)
		return row
	}
	ac := rec.Stats.TotalComm()
	row.Detections = ac.Detections
	row.Agreements = ac.Agreements
	row.Respawns = out.Stats.TotalComm().Respawns
	row.Reconstructions = rec.RebuildIO.Reconstructions
	row.RebuildSeconds = rec.RebuildSeconds
	row.RebuildExact = rec.RebuildSeconds == pred.RebuildSeconds
	aerr := trace.Reconcile(rec.Trace.Spans(), rec.Stats, rec.PerArray)
	serr := trace.Reconcile(out.Trace.Spans(), out.Stats, out.PerArray)
	row.Reconciled = aerr == nil && serr == nil
	if !row.Reconciled {
		row.Err = fmt.Sprintf("reconcile: aborted=%v success=%v", aerr, serr)
		return row
	}
	got, err := out.ReadArray(k.out)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Bitwise = matrix.Equal(got, k.want)
	out.Close()
	return row
}

// Gate returns an error describing the first violated acceptance
// property, or nil when the experiment passes.
func (r *RankSurvivalResult) Gate() error {
	if !r.UnprotectedFailed {
		return fmt.Errorf("rank loss without checkpoint+parity completed instead of failing")
	}
	perProgram := map[string]int{}
	detected := map[string]int{}
	for _, row := range r.Rows {
		if row.Err != "" {
			return fmt.Errorf("%s victim %d op %d: %s", row.Program, row.Victim, row.Op, row.Err)
		}
		if !row.Bitwise {
			return fmt.Errorf("%s victim %d op %d: output diverged from failure-free run", row.Program, row.Victim, row.Op)
		}
		if row.Attempts != 2 {
			return fmt.Errorf("%s victim %d op %d: attempts = %d, want 2", row.Program, row.Victim, row.Op, row.Attempts)
		}
		// A kill after the victim's last synchronization point is only
		// noticed at end-of-run join: no survivor blocks on the dead
		// rank, so no heartbeat detection or agreement round runs. Such
		// rows legitimately carry zero counters; when detection does
		// fire, agreement must follow.
		if row.Detections > 0 && row.Agreements == 0 {
			return fmt.Errorf("%s victim %d op %d: %d detections but no agreement round",
				row.Program, row.Victim, row.Op, row.Detections)
		}
		if row.Respawns != 1 {
			return fmt.Errorf("%s victim %d op %d: respawns = %d, want 1", row.Program, row.Victim, row.Op, row.Respawns)
		}
		if row.Reconstructions == 0 {
			return fmt.Errorf("%s victim %d op %d: no reconstruction recorded", row.Program, row.Victim, row.Op)
		}
		if !row.RebuildExact {
			return fmt.Errorf("%s victim %d op %d: rebuild seconds %v diverge from closed form %v",
				row.Program, row.Victim, row.Op, row.RebuildSeconds, row.PredSeconds)
		}
		if !row.Reconciled {
			return fmt.Errorf("%s victim %d op %d: spans do not reconcile", row.Program, row.Victim, row.Op)
		}
		perProgram[row.Program]++
		if row.Detections > 0 && row.Agreements > 0 {
			detected[row.Program]++
		}
	}
	for _, program := range []string{"gaxpy", "transpose", "stencil"} {
		if perProgram[program] == 0 {
			return fmt.Errorf("no %s rows in the sweep", program)
		}
		if detected[program] == 0 {
			return fmt.Errorf("no %s row exercised heartbeat detection and agreement", program)
		}
	}
	return nil
}

// Format renders the sweep.
func (r *RankSurvivalResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rank survival: %dx%d arrays on %d processors, one rank killed per run\n", r.N, r.N, r.Procs)
	fmt.Fprintf(&b, "%-10s %6s %8s %8s %7s %6s %8s %8s %12s %6s %9s\n",
		"program", "victim", "op", "bitwise", "detect", "agree", "respawn", "reconst", "rebuild s", "exact", "reconcile")
	for _, row := range r.Rows {
		if row.Err != "" {
			fmt.Fprintf(&b, "%-10s %6d %8d FAILED: %s\n", row.Program, row.Victim, row.Op, row.Err)
			continue
		}
		fmt.Fprintf(&b, "%-10s %6d %8d %8v %7d %6d %8d %8d %12.6g %6v %9v\n",
			row.Program, row.Victim, row.Op, row.Bitwise, row.Detections, row.Agreements,
			row.Respawns, row.Reconstructions, row.RebuildSeconds, row.RebuildExact, row.Reconciled)
	}
	fmt.Fprintf(&b, "unprotected control failed as required: %v\n", r.UnprotectedFailed)
	return b.String()
}

// CSV renders the sweep for plotting.
func (r *RankSurvivalResult) CSV() string {
	var b strings.Builder
	b.WriteString("program,victim,op,bitwise,attempts,detections,agreements,respawns,reconstructions,rebuild_seconds,rebuild_exact,reconciled,err\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%d,%d,%v,%d,%d,%d,%d,%d,%g,%v,%v,%s\n",
			row.Program, row.Victim, row.Op, row.Bitwise, row.Attempts, row.Detections,
			row.Agreements, row.Respawns, row.Reconstructions, row.RebuildSeconds,
			row.RebuildExact, row.Reconciled, strings.ReplaceAll(row.Err, ",", ";"))
	}
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// AblationResult collects the design-choice studies of DESIGN.md §5:
// prefetching, data sieving, the memory allocation policies, and the
// machine-model sensitivity of the strategy choice.
type AblationResult struct {
	N, Procs int

	// Row-slab simulated seconds with runtime options toggled.
	Baseline, Prefetch, Sieve, SievePrefetch, WriteBehind, AllOpts float64

	// Requests/bytes moved for A under plain vs sieved row slabs.
	PlainRequests, SievedRequests int64
	PlainBytes, SievedBytes       int64

	// Compiler memory policies: estimated I/O seconds and chosen splits.
	PolicySeconds map[string]float64
	PolicySplits  map[string][2]int

	// Strategy selection on a Delta-like vs a modern machine: the
	// column/row estimated cost ratios.
	DeltaRatio, ModernRatio float64
}

// Ablations runs the design-choice studies at the given scale.
func Ablations(p Params) (*AblationResult, error) {
	p = p.withDefaults(512)
	procs := p.Procs[0]
	n := p.N
	mach := p.Machine(procs)
	slab := slabForRatio(n, procs, 8)
	res := &AblationResult{N: n, Procs: procs}

	var runs []*exec.Result
	for _, opts := range []oocarray.Options{
		{}, {Prefetch: true}, {Sieve: true}, {Sieve: true, Prefetch: true},
		{WriteBehind: true}, {Sieve: true, Prefetch: true, WriteBehind: true},
	} {
		q := p
		q.Opts = opts
		out, err := runGaxpy(q, procs, "row-slab", slab, slab, slab)
		if err != nil {
			return nil, err
		}
		runs = append(runs, out)
	}
	sec := func(i int) float64 { return runs[i].Stats.ElapsedSeconds() }
	res.Baseline, res.Prefetch, res.Sieve = sec(0), sec(1), sec(2)
	res.SievePrefetch, res.WriteBehind, res.AllOpts = sec(3), sec(4), sec(5)

	bio, sio := runs[0].MaxArrayIO("a"), runs[2].MaxArrayIO("a")
	res.PlainRequests, res.SievedRequests = bio.ReadRequests, sio.ReadRequests
	res.PlainBytes, res.SievedBytes = bio.BytesRead, sio.BytesRead

	// Memory policies through the compiler.
	res.PolicySeconds = make(map[string]float64)
	res.PolicySplits = make(map[string][2]int)
	mem := 2 * slab
	for _, pol := range []compiler.MemPolicy{compiler.PolicyEven, compiler.PolicyWeighted, compiler.PolicySearch} {
		cres, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
			N: n, Procs: procs, MemElems: mem, Policy: pol, Machine: mach,
		})
		if err != nil {
			return nil, err
		}
		a, _ := cres.Program.Array("a")
		b, _ := cres.Program.Array("b")
		res.PolicySeconds[pol.String()] = cres.Candidates[cres.Chosen].Seconds(mach)
		res.PolicySplits[pol.String()] = [2]int{a.SlabElems, b.SlabElems}
	}

	// Machine sensitivity: how much the reorganization buys on the Delta
	// vs on a modern NVMe-class node.
	ratio := func(m sim.Config) (float64, error) {
		cres, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
			N: n, Procs: procs, MemElems: mem, Machine: m,
		})
		if err != nil {
			return 0, err
		}
		col := cres.Candidates[0].Seconds(m)
		row := cres.Candidates[1].Seconds(m)
		return col / row, nil
	}
	var err error
	if res.DeltaRatio, err = ratio(sim.Delta(procs)); err != nil {
		return nil, err
	}
	if res.ModernRatio, err = ratio(sim.Modern(procs)); err != nil {
		return nil, err
	}
	return res, nil
}

// Format renders the ablation report.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations: row-slab GAXPY, %dx%d on %d processors (slab ratio 1/8)\n", r.N, r.N, r.Procs)
	fmt.Fprintf(&b, "  runtime options (simulated seconds):\n")
	fmt.Fprintf(&b, "    baseline          %10.2f\n", r.Baseline)
	fmt.Fprintf(&b, "    prefetch          %10.2f\n", r.Prefetch)
	fmt.Fprintf(&b, "    data sieving      %10.2f\n", r.Sieve)
	fmt.Fprintf(&b, "    sieve + prefetch  %10.2f\n", r.SievePrefetch)
	fmt.Fprintf(&b, "    write-behind      %10.2f\n", r.WriteBehind)
	fmt.Fprintf(&b, "    all three         %10.2f\n", r.AllOpts)
	fmt.Fprintf(&b, "  data sieving trade (array A): requests %d -> %d, bytes %d -> %d\n",
		r.PlainRequests, r.SievedRequests, r.PlainBytes, r.SievedBytes)
	fmt.Fprintf(&b, "  memory policies (estimated I/O seconds, slab A/B split in elements):\n")
	for _, pol := range []string{"even", "weighted", "search"} {
		s := r.PolicySplits[pol]
		fmt.Fprintf(&b, "    %-9s %10.2f  (%d / %d)\n", pol, r.PolicySeconds[pol], s[0], s[1])
	}
	fmt.Fprintf(&b, "  column/row estimated cost ratio: Delta %.1fx, modern NVMe node %.1fx\n",
		r.DeltaRatio, r.ModernRatio)
	return b.String()
}

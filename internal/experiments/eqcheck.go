package experiments

import (
	"fmt"
	"strings"

	"github.com/ooc-hpf/passion/internal/cost"
	"github.com/ooc-hpf/passion/internal/oocarray"
)

// EqCheckRow is one configuration's analytic-vs-measured comparison for
// array A, the dominant array of Section 4.1.
type EqCheckRow struct {
	N, P, Denom int
	Strategy    string
	// PredFetches/PredElems come from Equations 3-6; the Meas fields
	// from the tracing I/O layer during execution.
	PredFetches, MeasFetches int64
	PredElems, MeasElems     int64
	Match                    bool
}

// EqCheckResult is the full Equations 3-6 validation (experiment E4).
type EqCheckResult struct {
	Rows []EqCheckRow
}

// EqCheck sweeps (N, P, slab ratio) configurations, executes both
// translations, and checks the measured per-processor I/O counts for A
// against the closed forms.
func EqCheck(p Params) (*EqCheckResult, error) {
	p = p.withDefaults(512)
	p.Opts = oocarray.Options{} // Equations 3-6 count plain transfers
	res := &EqCheckResult{}
	for _, procs := range p.Procs {
		for _, denom := range p.Ratios {
			slab := slabForRatio(p.N, procs, denom)
			g := cost.GaxpyParams{N: p.N, P: procs, SlabA: slab, SlabB: slab, SlabC: slab}
			elemSize := int64(p.Machine(procs).ElemSize)
			for _, v := range []struct {
				name string
				cand cost.Candidate
			}{
				{"column-slab", cost.GaxpyColumnSlab(g)},
				{"row-slab", cost.GaxpyRowSlab(g)},
			} {
				run, err := runGaxpy(p, procs, v.name, slab, slab, slab)
				if err != nil {
					return nil, err
				}
				ioA := run.MaxArrayIO("a")
				row := EqCheckRow{
					N: p.N, P: procs, Denom: denom, Strategy: v.name,
					PredFetches: v.cand.Streams[0].Fetches(),
					MeasFetches: ioA.SlabReads,
					PredElems:   v.cand.Streams[0].Elems(),
					MeasElems:   ioA.BytesRead / elemSize,
				}
				row.Match = row.PredFetches == row.MeasFetches && row.PredElems == row.MeasElems
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// AllMatch reports whether every configuration matched exactly.
func (r *EqCheckResult) AllMatch() bool {
	for _, row := range r.Rows {
		if !row.Match {
			return false
		}
	}
	return true
}

// Format renders the validation table.
func (r *EqCheckResult) Format() string {
	var b strings.Builder
	b.WriteString("Equations 3-6 validation: per-processor I/O for array A, predicted (closed form) vs measured\n")
	fmt.Fprintf(&b, "%-6s %-4s %-6s %-12s %12s %12s %14s %14s %s\n",
		"N", "P", "ratio", "strategy", "pred fetch", "meas fetch", "pred elems", "meas elems", "match")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d %-4d %-6s %-12s %12d %12d %14d %14d %v\n",
			row.N, row.P, ratioLabel(row.Denom), row.Strategy,
			row.PredFetches, row.MeasFetches, row.PredElems, row.MeasElems, row.Match)
	}
	fmt.Fprintf(&b, "all match: %v\n", r.AllMatch())
	return b.String()
}

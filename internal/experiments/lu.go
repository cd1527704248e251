package experiments

import (
	"fmt"
	"strings"

	"github.com/ooc-hpf/passion/internal/lu"
)

// LURow is one panel-width configuration of the LU sweep.
type LURow struct {
	PanelWidth int
	Panels     int
	PanelReads int64
	Seconds    float64
}

// LUResult is the out-of-core LU slab-size sweep: the Figure 10 effect on
// a second workload.
type LUResult struct {
	N, Procs int
	Rows     []LURow
}

// LU sweeps the panel width of the out-of-core LU factorization.
func LU(p Params) (*LUResult, error) {
	p = p.withDefaults(512)
	procs := p.Procs[0]
	n := p.N
	res := &LUResult{N: n, Procs: procs}
	for w := n / procs / 8; w <= n/procs; w *= 2 {
		if w < 1 {
			continue
		}
		r, err := lu.Run(p.Machine(procs), lu.Config{N: n, PanelWidth: w})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, LURow{
			PanelWidth: w,
			Panels:     n / w,
			PanelReads: r.Stats.TotalIO().SlabReads,
			Seconds:    r.Stats.ElapsedSeconds(),
		})
	}
	return res, nil
}

// Format renders the sweep.
func (r *LUResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Out-of-core LU, %dx%d over %d processors: panel width sweep\n", r.N, r.N, r.Procs)
	fmt.Fprintf(&b, "%-12s %10s %14s %12s\n", "panel width", "panels", "panel reads", "sim time")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12d %10d %14d %11.2fs\n", row.PanelWidth, row.Panels, row.PanelReads, row.Seconds)
	}
	return b.String()
}

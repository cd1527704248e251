package experiments

import (
	"fmt"
	"strings"
)

// Table2Result holds the reproduction of Table 2: the row-slab version's
// sensitivity to how memory is split between the slabs of A and B
// (2K x 2K arrays on 16 processors in the paper). Slab sizes are quoted,
// as in the paper, in "rows/columns" units: a slab size of s means
// s * (N/P) elements.
type Table2Result struct {
	N, Procs int
	Sizes    []int
	// VaryB[i] is the time with slab(A) fixed at Sizes[0] and slab(B) =
	// Sizes[i]; VaryA[i] the converse.
	VaryB, VaryA []float64
	// BestSplit reports the allocation the compiler's search policy
	// picks for the largest total-memory row, and its time.
	BestA, BestB int
	BestSeconds  float64
	EvenSeconds  float64 // even split of the same total memory
}

// Table2 regenerates Table 2.
func Table2(p Params) (*Table2Result, error) {
	p = p.withDefaults(paperTable2Extent)
	procs := paperTable2Procs
	if len(p.Procs) == 1 {
		procs = p.Procs[0]
	}
	n := p.N
	unit := n / procs // one "row/column" of slab memory, in elements
	sizes := append([]int(nil), paperTable2Sizes...)
	if n != paperTable2Extent {
		// Scale the sweep to the chosen extent: base size n/8 doubling
		// up to n, mirroring 256..2048 for n=2048.
		sizes = []int{n / 8, n / 4, n / 2, n}
	}
	res := &Table2Result{N: n, Procs: procs, Sizes: sizes}

	runRow := func(slabA, slabB int) (float64, error) {
		return gaxpySeconds(p, procs, "row-slab", slabA*unit, slabB*unit, sizes[0]*unit)
	}

	fixed := sizes[0]
	for _, s := range sizes {
		t, err := runRow(fixed, s)
		if err != nil {
			return nil, err
		}
		res.VaryB = append(res.VaryB, t)
		t, err = runRow(s, fixed)
		if err != nil {
			return nil, err
		}
		res.VaryA = append(res.VaryA, t)
	}

	// The Section 4.2.1 policy check: for the largest total memory in
	// the sweep, compare an even split against the best split found.
	total := sizes[len(sizes)-1] + fixed
	even := total / 2
	var err error
	if res.EvenSeconds, err = runRow(even, total-even); err != nil {
		return nil, err
	}
	res.BestA, res.BestB = sizes[len(sizes)-1], fixed
	if res.BestSeconds, err = runRow(res.BestA, res.BestB); err != nil {
		return nil, err
	}
	return res, nil
}

// atPaperScale reports whether the paper's side-by-side columns apply.
func (r *Table2Result) atPaperScale() bool {
	return r.N == paperTable2Extent && r.Procs == paperTable2Procs && equalInts(r.Sizes, paperTable2Sizes)
}

// Format renders the table, paper values alongside at paper scale.
func (r *Table2Result) Format() string {
	var b strings.Builder
	paper := r.atPaperScale()
	fmt.Fprintf(&b, "Table 2: row-slab %dx%d on %d processors, slab sizes in rows/columns (simulated seconds)\n",
		r.N, r.N, r.Procs)
	if paper {
		b.WriteString("(reproduction / paper)\n")
	}
	fmt.Fprintf(&b, "%-10s %22s %22s %12s\n", "Slab size",
		fmt.Sprintf("slab A=%d, vary B", r.Sizes[0]),
		fmt.Sprintf("slab B=%d, vary A", r.Sizes[0]),
		"Total mem")
	for i, s := range r.Sizes {
		vb := fmt.Sprintf("%22.2f", r.VaryB[i])
		va := fmt.Sprintf("%22.2f", r.VaryA[i])
		if paper {
			vb = fmt.Sprintf("%12.1f/%9.1f", r.VaryB[i], paperTable2VaryB[i])
			va = fmt.Sprintf("%12.1f/%9.1f", r.VaryA[i], paperTable2VaryA[i])
		}
		fmt.Fprintf(&b, "%-10d %s %s %12d\n", s, vb, va, s+r.Sizes[0])
	}
	fmt.Fprintf(&b, "\nSection 4.2.1 check at total memory %d: A-heavy split (%d,%d) %.2fs vs even split %.2fs\n",
		r.BestA+r.BestB, r.BestA, r.BestB, r.BestSeconds, r.EvenSeconds)
	return b.String()
}

// CSV renders the sweep for plotting.
func (r *Table2Result) CSV() string {
	var b strings.Builder
	b.WriteString("sweep,slab_a,slab_b,seconds\n")
	for i, s := range r.Sizes {
		fmt.Fprintf(&b, "vary_b,%d,%d,%.3f\n", r.Sizes[0], s, r.VaryB[i])
		fmt.Fprintf(&b, "vary_a,%d,%d,%.3f\n", s, r.Sizes[0], r.VaryA[i])
	}
	return b.String()
}

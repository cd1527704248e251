// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 3.4 and Section 4.2): Figure 10 (slab-size effect
// on the column-slab translation), Table 1 (column vs row slab vs
// in-core), Table 2 (memory allocation between A and B), plus the
// Equations 3-6 validation and the ablations called out in DESIGN.md.
//
// Experiments run the compiled Figure 3 program (gaxpy.Plan: forced to a
// strategy, at the table's slab sizes) through package exec on the
// simulated Delta machine, by default in accounting-only (phantom) mode,
// whose statistics equal real execution's (package exec's tests); package
// gaxpy's tests hold every configuration equal to the hand-written
// translations of Figures 5, 9 and 12.
package experiments

// Paper-reported numbers (seconds on the Intel Touchstone Delta), kept
// here so every generated table can print the paper's value next to the
// reproduction's. Index order follows paperProcs.
var (
	paperProcs  = []int{4, 16, 32, 64}
	paperRatios = []int{8, 4, 2, 1} // slab ratio denominators: 1/8 .. 1

	// paperTable1Col and paperTable1Row are Table 1, indexed
	// [ratioIdx][procIdx] with ratios ordered 1/8, 1/4, 1/2, 1.
	paperTable1Col = [][]float64{
		{1045.84, 897.59, 857.62, 803.57},
		{979.20, 864.08, 807.99, 783.79},
		{958.17, 802.69, 788.47, 698.29},
		{923.11, 714.15, 680.40, 620.70},
	}
	paperTable1Row = [][]float64{
		{239.97, 161.02, 97.08, 90.29},
		{226.08, 118.20, 92.43, 75.56},
		{205.91, 96.79, 80.45, 66.70},
		{194.15, 84.77, 66.94, 60.11},
	}
	paperTable1InCore = []float64{140.91, 40.40, 20.14, 9.58}

	// paperTable2 is Table 2 (2K x 2K, 16 processors): the slab-size
	// sweep values 256, 512, 1024, 2048 with the other array fixed at
	// 256.
	paperTable2Sizes  = []int{256, 512, 1024, 2048}
	paperTable2VaryB  = []float64{826.94, 548.13, 507.01, 493.04}
	paperTable2VaryA  = []float64{826.94, 510.02, 492.87, 452.29}
	paperTable2Procs  = 16
	paperTable2Extent = 2048
)

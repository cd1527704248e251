package cost

// GAXPY-specific instantiations of the cost framework: the closed forms of
// Section 4.1 (Equations 3-6) for the two translations of the out-of-core
// matrix multiplication program.

// GaxpyParams describes one out-of-core GAXPY matrix multiplication
// configuration: C = A*B with N x N matrices over P processors, slab
// memory (in elements) per array, and whether row slabs are read with
// data sieving.
type GaxpyParams struct {
	N, P  int
	SlabA int
	SlabB int
	SlabC int
	Sieve bool
}

// ocla returns the per-processor local array size N^2/P in elements.
func (g GaxpyParams) ocla() int64 { return int64(g.N) * int64(g.N) / int64(g.P) }

// GaxpyColumnSlab returns the cost model of the column-slab translation
// (Figure 9): for every one of the N global columns of C, the whole local
// array of A is streamed through memory, giving
//
//	T_fetch(A) = N^3 / (M*P)   (Equation 3)
//	T_data(A)  = N^3 / P       (Equation 4)
//
// while B is read and C written exactly once.
func GaxpyColumnSlab(g GaxpyParams) Candidate {
	ocla := g.ocla()
	return Candidate{
		Label: "column-slab",
		Streams: []Stream{
			{
				Array:     "a",
				OCLAElems: ocla,
				SlabElems: int64(g.SlabA),
				// One full pass of A per global column of C.
				Passes:         int64(g.N),
				ChunksPerFetch: 1, // whole columns: contiguous
			},
			{
				Array:          "b",
				OCLAElems:      ocla,
				SlabElems:      int64(g.SlabB),
				Passes:         1,
				ChunksPerFetch: 1,
			},
			{
				Array:          "c",
				OCLAElems:      ocla,
				SlabElems:      int64(g.SlabC),
				Passes:         1,
				ChunksPerFetch: 1,
				Write:          true,
			},
		},
	}
}

// GaxpyRowSlab returns the cost model of the row-slab translation
// (Figure 12): A is streamed exactly once in row slabs,
//
//	T_fetch(A) = N^2 / (M*P)   (Equation 5)
//	T_data(A)  = N^2 / P       (Equation 6)
//
// at the price of discontiguous slab fetches (one chunk per local column,
// or a sieved span) and of B being re-read once per row slab of A.
func GaxpyRowSlab(g GaxpyParams) Candidate {
	ocla := g.ocla()
	localCols := int64(g.N) / int64(g.P) // columns of A per processor

	a := Stream{
		Array:          "a",
		OCLAElems:      ocla,
		SlabElems:      int64(g.SlabA),
		Passes:         1,
		ChunksPerFetch: localCols,
	}
	if g.Sieve {
		a.ChunksPerFetch = 1
		// A sieved row-slab read covers the span from the slab's first
		// row in the first column to its last row in the last column:
		// nearly the whole OCLA per fetch.
		rows, slabRows := int64(g.N), max(1, int64(g.SlabA)/localCols)
		a.ElemsPerFetch = min(ocla, (localCols-1)*rows+slabRows)
	}
	aSlabs := a.SlabsPerPass()

	return Candidate{
		Label: "row-slab",
		Streams: []Stream{
			a,
			{
				Array:     "b",
				OCLAElems: ocla,
				SlabElems: int64(g.SlabB),
				// B is fully re-streamed for every row slab of A.
				Passes:         aSlabs,
				ChunksPerFetch: 1,
			},
			{
				Array:          "c",
				OCLAElems:      ocla,
				SlabElems:      int64(g.SlabC),
				Passes:         1,
				ChunksPerFetch: 1,
				Write:          true,
			},
		},
	}
}

// GaxpyCandidates returns both translations, column-slab first.
func GaxpyCandidates(g GaxpyParams) []Candidate {
	return []Candidate{GaxpyColumnSlab(g), GaxpyRowSlab(g)}
}

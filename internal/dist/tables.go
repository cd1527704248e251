package dist

import "fmt"

// DimTable is one dimension's Map tabulated over its whole extent — what
// Owner, ToLocal and ToGlobal compute per index, inspected once so that a
// per-element loop routes by lookup instead of dividing. Entries are
// int32: an extent that did not fit could not be tabulated anyway.
type DimTable struct {
	// Own[g] is the contribution of global index g to the owner's rank:
	// the owner coordinate times the stride of the dimension's grid axis,
	// 0 throughout a collapsed dimension. The contributions of a 2-D
	// array's two dimensions add up to Owner2.
	Own []int32
	// Loc[g] is the local index of g on its owner (ToLocal's second
	// result).
	Loc []int32
	// glob lists the global indices grouped by owner coordinate, each
	// group in local-index order; start[c] is where coordinate c's group
	// begins (len(start) is the coordinate count plus one).
	glob  []int32
	start []int32
}

// Globals returns the global indices owned by processor coordinate coord,
// indexed by local index (ToGlobal tabulated). The slice aliases the
// table and must not be modified.
func (t *DimTable) Globals(coord int) []int32 {
	return t.glob[t.start[coord]:t.start[coord+1]]
}

// Tables2 is the inspected form of a two-dimensional mapping: a DimTable
// per dimension and the local row count of every rank. It depends on the
// mapping alone, never on the rank asking, so one copy serves all ranks.
type Tables2 struct {
	Dim [2]DimTable
	// Rows[q] is LocalShape(q)[0]: the column stride of rank q's
	// column-major local array file.
	Rows []int32
}

// Tables2 returns the mapping's routing tables, building them on first
// use: O(extent) int32 entries per dimension plus one per rank, held
// once per Array however many ranks share it. Safe for concurrent use.
func (a *Array) Tables2() *Tables2 {
	a.tablesOnce.Do(func() { a.tables = a.buildTables2() })
	return a.tables
}

// LocalGlobals returns rank's local-to-global translation, one slice per
// dimension: local element (li, lj) of rank is global element
// (rows[li], cols[lj]). The slices alias the mapping's tables and must
// not be modified.
func (a *Array) LocalGlobals(rank int) (rows, cols []int32) {
	t := a.Tables2()
	return t.Dim[0].Globals(a.ProcCoord(rank, 0)), t.Dim[1].Globals(a.ProcCoord(rank, 1))
}

func (a *Array) buildTables2() *Tables2 {
	if len(a.Dims) != 2 {
		panic(fmt.Sprintf("dist: Tables2 on %q wants a 2-D array, got %d dims", a.Name, len(a.Dims)))
	}
	t := &Tables2{}
	// Owner2 linearizes the owner coordinates row-major over the grid
	// axes, so dimension 0's coordinate is scaled by dimension 1's axis
	// extent when both are distributed. Off a grid only the first
	// distributed dimension names the owner.
	stride := [2]int{1, 1}
	if a.Dims[0].Scheme != Collapsed && a.Dims[1].Scheme != Collapsed {
		if a.Grid != nil {
			stride[0] = a.Grid[1]
		} else {
			stride[1] = 0
		}
	}
	for d := range t.Dim {
		t.Dim[d] = a.Dims[d].table(stride[d])
	}
	t.Rows = make([]int32, a.Procs())
	for q := range t.Rows {
		t.Rows[q] = int32(a.Dims[0].LocalCount(a.ProcCoord(q, 0)))
	}
	return t
}

// table tabulates the map, scaling owner coordinates by stride.
func (m Map) table(stride int) DimTable {
	coords := m.Procs
	if m.Scheme == Collapsed {
		coords = 1
	}
	// One backing array for the three extent-sized columns.
	cols := make([]int32, 3*m.Extent)
	t := DimTable{
		Own:   cols[:m.Extent:m.Extent],
		Loc:   cols[m.Extent : 2*m.Extent : 2*m.Extent],
		glob:  cols[2*m.Extent:],
		start: make([]int32, coords+1),
	}
	for c := 0; c < coords; c++ {
		t.start[c+1] = t.start[c] + int32(m.LocalCount(c))
	}
	for g := 0; g < m.Extent; g++ {
		c, l := m.ToLocal(g)
		if c < 0 { // collapsed
			c = 0
		}
		t.Own[g] = int32(c * stride)
		t.Loc[g] = int32(l)
		t.glob[int(t.start[c])+l] = int32(g)
	}
	return t
}

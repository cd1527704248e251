// Package dist implements HPF-style data mappings: the DISTRIBUTE and
// ALIGN directives' effect of partitioning a global array index space over
// a set of processors, and the global<->local index translations the
// compiler and runtime need.
//
// Indices are 0-based throughout the implementation; the HPF frontend
// converts from Fortran's 1-based convention.
package dist

import (
	"fmt"
	"sync"
)

// Scheme identifies how one array dimension is mapped.
type Scheme int

const (
	// Collapsed means the dimension is not distributed: every processor
	// holds the full extent of this dimension (HPF's "*" alignment).
	Collapsed Scheme = iota
	// Block assigns each processor one contiguous chunk of
	// ceil(N/P) indices (HPF BLOCK).
	Block
	// Cyclic deals indices round-robin (HPF CYCLIC).
	Cyclic
	// BlockCyclic deals blocks of a fixed size round-robin
	// (HPF CYCLIC(k)).
	BlockCyclic
)

// String returns the HPF spelling of the scheme.
func (s Scheme) String() string {
	switch s {
	case Collapsed:
		return "*"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	case BlockCyclic:
		return "CYCLIC(k)"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Map describes the distribution of a single dimension of extent Extent
// over Procs processors.
type Map struct {
	Extent int
	Procs  int
	Scheme Scheme
	// Block is the block size for BlockCyclic; ignored otherwise.
	Block int
}

// NewBlock returns a BLOCK distribution of n indices over p processors.
func NewBlock(n, p int) Map { return Map{Extent: n, Procs: p, Scheme: Block} }

// NewCyclic returns a CYCLIC distribution of n indices over p processors.
func NewCyclic(n, p int) Map { return Map{Extent: n, Procs: p, Scheme: Cyclic} }

// NewBlockCyclic returns a CYCLIC(k) distribution of n indices over p
// processors with block size k.
func NewBlockCyclic(n, p, k int) Map {
	return Map{Extent: n, Procs: p, Scheme: BlockCyclic, Block: k}
}

// NewCollapsed returns an undistributed dimension of extent n: every
// processor holds all n indices.
func NewCollapsed(n int) Map { return Map{Extent: n, Procs: 1, Scheme: Collapsed} }

// Validate reports whether the map is well formed.
func (m Map) Validate() error {
	if m.Extent < 0 {
		return fmt.Errorf("dist: negative extent %d", m.Extent)
	}
	if m.Scheme == Collapsed {
		return nil
	}
	if m.Procs <= 0 {
		return fmt.Errorf("dist: %v distribution needs positive processor count, got %d", m.Scheme, m.Procs)
	}
	if m.Scheme == BlockCyclic && m.Block <= 0 {
		return fmt.Errorf("dist: CYCLIC(k) needs positive block size, got %d", m.Block)
	}
	return nil
}

// blockSize returns the chunk size used by the scheme: ceil(N/P) for
// Block, 1 for Cyclic, k for BlockCyclic.
func (m Map) blockSize() int {
	switch m.Scheme {
	case Block:
		if m.Extent == 0 {
			return 1
		}
		return (m.Extent + m.Procs - 1) / m.Procs
	case Cyclic:
		return 1
	case BlockCyclic:
		return m.Block
	default: // Collapsed
		return m.Extent
	}
}

// BlockSize exposes the scheme's chunk size (ceil(N/P) for BLOCK, 1 for
// CYCLIC, k for CYCLIC(k), the full extent for a collapsed dimension).
func (m Map) BlockSize() int { return m.blockSize() }

// Owner returns the processor owning global index g, or -1 for a collapsed
// dimension (every processor holds it).
func (m Map) Owner(g int) int {
	if m.Scheme == Collapsed {
		return -1
	}
	bs := m.blockSize()
	switch m.Scheme {
	case Block:
		o := g / bs
		if o >= m.Procs { // ragged last block
			o = m.Procs - 1
		}
		return o
	default: // Cyclic, BlockCyclic
		return (g / bs) % m.Procs
	}
}

// ToLocal translates global index g to (owner, local index). For a
// collapsed dimension the owner is -1 and the local index equals g.
func (m Map) ToLocal(g int) (proc, local int) {
	switch m.Scheme {
	case Collapsed:
		return -1, g
	case Block:
		proc = m.Owner(g)
		return proc, g - proc*m.blockSize()
	default:
		bs := m.blockSize()
		course := g / (bs * m.Procs) // which dealing round
		return m.Owner(g), course*bs + g%bs
	}
}

// ToGlobal translates a (processor, local index) pair back to the global
// index. It is the inverse of ToLocal on valid indices.
func (m Map) ToGlobal(proc, local int) int {
	switch m.Scheme {
	case Collapsed:
		return local
	case Block:
		return proc*m.blockSize() + local
	default:
		bs := m.blockSize()
		course := local / bs
		return (course*m.Procs+proc)*bs + local%bs
	}
}

// LocalCount returns how many indices processor proc owns.
func (m Map) LocalCount(proc int) int {
	switch m.Scheme {
	case Collapsed:
		return m.Extent
	case Block:
		bs := m.blockSize()
		lo := proc * bs
		if lo >= m.Extent {
			return 0
		}
		hi := lo + bs
		if hi > m.Extent {
			hi = m.Extent
		}
		return hi - lo
	default:
		bs := m.blockSize()
		full := m.Extent / (bs * m.Procs) // complete dealing rounds
		n := full * bs
		rem := m.Extent - full*bs*m.Procs // indices in the last partial round
		start := proc * bs
		switch {
		case rem > start+bs:
			n += bs
		case rem > start:
			n += rem - start
		}
		return n
	}
}

// LocalRange returns the contiguous global range [lo, hi) owned by proc.
// It is only meaningful for Block (and Collapsed) maps; it panics for
// cyclic schemes, whose local sets are not contiguous.
func (m Map) LocalRange(proc int) (lo, hi int) {
	switch m.Scheme {
	case Collapsed:
		return 0, m.Extent
	case Block:
		bs := m.blockSize()
		lo = proc * bs
		hi = lo + bs
		if lo > m.Extent {
			lo = m.Extent
		}
		if hi > m.Extent {
			hi = m.Extent
		}
		return lo, hi
	default:
		panic(fmt.Sprintf("dist: LocalRange on non-contiguous %v map", m.Scheme))
	}
}

// GlobalIndices returns, in increasing order, the global indices owned by
// proc. Intended for redistribution and testing rather than inner loops.
func (m Map) GlobalIndices(proc int) []int {
	n := m.LocalCount(proc)
	out := make([]int, 0, n)
	for l := 0; l < n; l++ {
		out = append(out, m.ToGlobal(proc, l))
	}
	return out
}

// Array describes the mapping of a (possibly multidimensional) global
// array over a one-dimensional processor arrangement, in the style of the
// paper: at most one dimension is distributed over the processors, the
// others are collapsed.
type Array struct {
	Name string
	// Dims holds one Map per array dimension. Dims[0] is the row
	// (leftmost, fastest-varying in Fortran column-major order)
	// dimension.
	Dims []Map
	// Grid, when non-nil, is the shape of a multi-dimensional processor
	// arrangement: the distributed dimensions of Dims take the grid's
	// axes in order (see NewGridArray). Nil means the classic 1-D
	// arrangement of the paper, with at most one distributed dimension.
	Grid []int
	// axes caches axisOf(). Set once by Validate (which every constructor
	// calls) and read-only afterwards, so sharing the Array across rank
	// goroutines stays race-free.
	axes []int
	// tables caches Tables2(), published once by whichever rank asks
	// first.
	tablesOnce sync.Once
	tables     *Tables2
}

// NewArray builds an array mapping and validates it.
func NewArray(name string, dims ...Map) (*Array, error) {
	a := &Array{Name: name, Dims: dims}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Validate checks the per-dimension maps against the processor
// arrangement: at most one distributed dimension on the default 1-D
// arrangement, or exactly one distributed dimension per grid axis when a
// Grid is set.
func (a *Array) Validate() error {
	if len(a.Dims) == 0 {
		return fmt.Errorf("dist: array %q has no dimensions", a.Name)
	}
	var distributed []int
	for i, d := range a.Dims {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("dist: array %q dim %d: %w", a.Name, i, err)
		}
		if d.Scheme != Collapsed {
			distributed = append(distributed, i)
		}
	}
	if a.Grid == nil {
		if len(distributed) > 1 {
			return fmt.Errorf("dist: array %q distributes %d dimensions over a 1-D processor grid", a.Name, len(distributed))
		}
		a.axes = a.axisOf()
		return nil
	}
	g := Grid{Shape: a.Grid}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("dist: array %q: %w", a.Name, err)
	}
	if len(distributed) != len(a.Grid) {
		return fmt.Errorf("dist: array %q distributes %d dimensions over a %d-D processor grid",
			a.Name, len(distributed), len(a.Grid))
	}
	for axis, dim := range distributed {
		if a.Dims[dim].Procs != a.Grid[axis] {
			return fmt.Errorf("dist: array %q dim %d maps over %d processors but grid axis %d has %d",
				a.Name, dim, a.Dims[dim].Procs, axis, a.Grid[axis])
		}
	}
	a.axes = a.axisOf()
	return nil
}

// Procs returns the total processor count: the product of the grid axes,
// or the single distributed dimension's count (1 if fully collapsed).
func (a *Array) Procs() int {
	if a.Grid != nil {
		return Grid{Shape: a.Grid}.Size()
	}
	for _, d := range a.Dims {
		if d.Scheme != Collapsed {
			return d.Procs
		}
	}
	return 1
}

// DistributedDim returns the index of the distributed dimension, or -1 if
// none is distributed.
func (a *Array) DistributedDim() int {
	for i, d := range a.Dims {
		if d.Scheme != Collapsed {
			return i
		}
	}
	return -1
}

// GlobalShape returns the global extents.
func (a *Array) GlobalShape() []int {
	s := make([]int, len(a.Dims))
	for i, d := range a.Dims {
		s[i] = d.Extent
	}
	return s
}

// LocalShape returns the extents of the local array on processor proc.
func (a *Array) LocalShape(proc int) []int {
	s := make([]int, len(a.Dims))
	for i, d := range a.Dims {
		if d.Scheme == Collapsed {
			s[i] = d.Extent
		} else {
			s[i] = d.LocalCount(a.ProcCoord(proc, i))
		}
	}
	return s
}

// LocalElems returns the number of elements of the local array on proc.
func (a *Array) LocalElems(proc int) int {
	n := 1
	for _, e := range a.LocalShape(proc) {
		n *= e
	}
	return n
}

// Owner returns the processor that owns the element at the given global
// index vector. For a fully collapsed array it returns 0 (replicated data
// is canonically owned by processor 0).
func (a *Array) Owner(idx ...int) int {
	if len(idx) != len(a.Dims) {
		panic(fmt.Sprintf("dist: Owner on %q wants %d indices, got %d", a.Name, len(a.Dims), len(idx)))
	}
	if a.Grid != nil {
		g := Grid{Shape: a.Grid}
		coords := make([]int, 0, len(a.Grid))
		for i, d := range a.Dims {
			if d.Scheme != Collapsed {
				coords = append(coords, d.Owner(idx[i]))
			}
		}
		return g.Rank(coords...)
	}
	d := a.DistributedDim()
	if d < 0 {
		return 0
	}
	return a.Dims[d].Owner(idx[d])
}

// ToLocal2 is ToLocal for two-dimensional arrays without the slice
// traffic: it returns the owner rank and both local indices as scalars.
// Redistribution visits every element through it.
func (a *Array) ToLocal2(i, j int) (proc, li, lj int) {
	if len(a.Dims) != 2 {
		panic(fmt.Sprintf("dist: ToLocal2 on %q wants a 2-D array, got %d dims", a.Name, len(a.Dims)))
	}
	_, li = a.Dims[0].ToLocal(i)
	_, lj = a.Dims[1].ToLocal(j)
	return a.Owner2(i, j), li, lj
}

// Owner2 is Owner for two-dimensional arrays without the variadic and
// coordinate-vector allocations.
func (a *Array) Owner2(i, j int) int {
	if len(a.Dims) != 2 {
		panic(fmt.Sprintf("dist: Owner2 on %q wants a 2-D array, got %d dims", a.Name, len(a.Dims)))
	}
	if a.Grid != nil {
		// Linearize the owner coordinates exactly as Grid.Rank does:
		// distributed dims take the grid axes in order.
		r, axis := 0, 0
		if a.Dims[0].Scheme != Collapsed {
			r = r*a.Grid[axis] + a.Dims[0].Owner(i)
			axis++
		}
		if a.Dims[1].Scheme != Collapsed {
			r = r*a.Grid[axis] + a.Dims[1].Owner(j)
		}
		return r
	}
	if a.Dims[0].Scheme != Collapsed {
		return a.Dims[0].Owner(i)
	}
	if a.Dims[1].Scheme != Collapsed {
		return a.Dims[1].Owner(j)
	}
	return 0
}

// ToLocal translates a global index vector to the local index vector on
// the owning processor, returning (owner, local indices).
func (a *Array) ToLocal(idx ...int) (proc int, local []int) {
	if len(idx) != len(a.Dims) {
		panic(fmt.Sprintf("dist: ToLocal on %q wants %d indices, got %d", a.Name, len(a.Dims), len(idx)))
	}
	local = make([]int, len(idx))
	for i, d := range a.Dims {
		_, l := d.ToLocal(idx[i])
		local[i] = l
	}
	return a.Owner(idx...), local
}

// String renders the mapping in HPF-directive style.
func (a *Array) String() string {
	s := a.Name + "("
	for i, d := range a.Dims {
		if i > 0 {
			s += ","
		}
		s += d.Scheme.String()
	}
	return s + ")"
}

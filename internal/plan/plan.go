// Package plan defines the intermediate representation the out-of-core
// compiler emits: a structured "node + message passing + I/O" program in
// the spirit of the paper's Figures 9 and 12. The IR is both printable
// (as pseudo-code, for inspection) and executable (interpreted by package
// exec on the simulated machine).
//
// The execution model is SPMD: every processor runs the same Body against
// its own out-of-core local arrays. Scalar loop variables live in a local
// environment; slab buffers (ICLAs) and accumulation vectors are named.
// One implicit global column counter, advanced by SumStore and cleared by
// ResetCounter, tracks which global result column the current reduction
// produces — exactly the "global_index" variable of the paper's
// pseudo-code.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/oocarray"
)

// Role classifies an array's use in the program.
type Role int

// Array roles.
const (
	In Role = iota
	Out
)

// String names the role.
func (r Role) String() string {
	if r == Out {
		return "out"
	}
	return "in"
}

// ArraySpec describes one out-of-core array of the program: its global
// shape, its HPF mapping, and the compiler's strip-mining decisions.
type ArraySpec struct {
	Name       string
	Rows, Cols int
	// RowScheme and ColScheme give the per-dimension mapping (Collapsed
	// or Block over the program's processors).
	RowScheme, ColScheme dist.Scheme
	Role                 Role
	// Grid, when non-nil, is the multi-dimensional processor
	// arrangement the distributed dimensions map onto.
	Grid []int
	// SlabElems is the node memory allocated to this array's ICLA.
	SlabElems int
	// SlabDim is the chosen strip-mining direction.
	SlabDim oocarray.Dim
}

// DistArray materializes the HPF mapping for the given processor count.
func (a ArraySpec) DistArray(procs int) (*dist.Array, error) {
	if len(a.Grid) > 1 {
		axis := 0
		mk := func(s dist.Scheme, extent int) dist.Map {
			if s == dist.Collapsed {
				return dist.NewCollapsed(extent)
			}
			m := dist.Map{Extent: extent, Procs: a.Grid[axis], Scheme: s}
			axis++
			return m
		}
		return dist.NewGridArray(a.Name, dist.NewGrid(a.Grid...),
			mk(a.RowScheme, a.Rows), mk(a.ColScheme, a.Cols))
	}
	mk := func(s dist.Scheme, extent int) dist.Map {
		if s == dist.Collapsed {
			return dist.NewCollapsed(extent)
		}
		return dist.Map{Extent: extent, Procs: procs, Scheme: s}
	}
	return dist.NewArray(a.Name, mk(a.RowScheme, a.Rows), mk(a.ColScheme, a.Cols))
}

// Program is a compiled node program.
type Program struct {
	// Name labels the program (source file or construct).
	Name string
	// N is the global problem extent.
	N int
	// Procs is the processor count the program was compiled for.
	Procs int
	// Strategy names the chosen access reorganization ("row-slab",
	// "column-slab").
	Strategy string
	// Arrays lists every out-of-core array.
	Arrays []ArraySpec
	// Notes records compiler decisions (cost estimates, memory split).
	Notes []string
	// Body is the SPMD node program.
	Body []Node
	// Runtime holds the switches every run uses (sieving, prefetch,
	// write-behind); the lowered opcode stream does not carry them.
	Runtime oocarray.Options
}

// Array finds an array spec by name.
func (p *Program) Array(name string) (ArraySpec, bool) {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a, true
		}
	}
	return ArraySpec{}, false
}

// Node is one IR statement.
type Node interface {
	node()
	// Pretty renders the node as pseudo-code.
	Pretty(indent int) string
}

// CountExpr gives a loop's trip count: a literal, the slab count of an
// array's decomposition, or the column count of a buffer. Exactly one
// field is set.
type CountExpr struct {
	Lit     int
	SlabsOf string
	ColsOf  string
}

// String renders the count.
func (c CountExpr) String() string { return string(c.appendTo(nil)) }

func (c CountExpr) appendTo(b []byte) []byte {
	switch {
	case c.SlabsOf != "":
		return append(append(append(b, "slabs("...), c.SlabsOf...), ')')
	case c.ColsOf != "":
		return append(append(append(b, "cols("...), c.ColsOf...), ')')
	default:
		return strconv.AppendInt(b, int64(c.Lit), 10)
	}
}

// Loop runs Body with Var = 0 .. Count-1.
type Loop struct {
	Var   string
	Count CountExpr
	Body  []Node
}

// ReadSlab reads slab Index (a loop variable) of Array into buffer Buf,
// using the array's SlabDim and SlabElems. Stream marks reads the
// compiler proved to be sequential scans (Index is the immediately
// enclosing loop variable running over all slabs), which the runtime may
// prefetch ahead of the computation.
//
// Ghosts, when set, widens a column slab by Left columns before it and
// Right after it: the ones inside the local block are read with the slab,
// the ones beyond it come from the ghost buffer an Exchange filled.
type ReadSlab struct {
	Array       string
	Index       string
	Buf         string
	Stream      bool
	Ghosts      string
	Left, Right int
}

// NewStaging allocates an output staging buffer for Array covering the
// same local rows as buffer RowsLike and all local columns, registering
// it as the array's current staging target.
type NewStaging struct {
	Array    string
	Buf      string
	RowsLike string
}

// AutoStage enables counter-driven staging for Array: SumStore flushes
// and repositions the staging slab as the global column counter crosses
// slab boundaries (the "if ICLA is full then write" of Figure 9).
type AutoStage struct {
	Array string
}

// FlushStage writes Array's pending staging buffer, if any.
type FlushStage struct {
	Array string
}

// WriteBuf writes buffer Buf back to its section of Array.
type WriteBuf struct {
	Array string
	Buf   string
}

// ZeroVec clears (allocating on first use) the accumulation vector Vec,
// sized to the row count of buffer RowsLike, or to the local row count of
// array RowsOfArray when RowsLike is empty.
type ZeroVec struct {
	Vec         string
	RowsLike    string
	RowsOfArray string
}

// Axpy accumulates Vec += A[:, ACol] * B[BRow, BCol], where
// BRow = BRowBase * slabWidth(BRowScale) + BRowPlus. Empty variable names
// contribute zero; empty BRowScale means scale 1.
type Axpy struct {
	Vec  string
	A    string // slab buffer of the streamed array
	ACol string // loop variable indexing A's columns
	B    string // slab buffer holding the multiplier
	// BRowBase/BRowScale/BRowPlus encode the multiplier's row index in
	// terms of loop variables (the "column_count" of Figure 9).
	BRowBase  string
	BRowScale string // array whose slab width (in columns) scales BRowBase
	BRowPlus  string
	BCol      string // loop variable indexing B's columns
}

// SumStore performs the global sum of Vec across all processors and
// delivers the result to the owner of the current global column of Array
// (the implicit counter), storing it into the array's staging buffer; the
// counter then advances.
type SumStore struct {
	Vec   string
	Array string
}

// ResetCounter clears the implicit global column counter.
type ResetCounter struct{}

// Redistribute copies Src into Dst under Dst's mapping through the
// collective I/O layer (internal/collio); with Transpose set the global
// indices are swapped, yielding an out-of-core transpose. Method is the
// cost model's choice of destination write strategy ("direct", "sieved"
// or "two-phase") and MemElems the per-processor memory budget of the
// collective.
type Redistribute struct {
	Src, Dst  string
	Transpose bool
	Method    string
	MemElems  int
}

func (*Loop) node()         {}
func (*ReadSlab) node()     {}
func (*NewStaging) node()   {}
func (*AutoStage) node()    {}
func (*FlushStage) node()   {}
func (*WriteBuf) node()     {}
func (*ZeroVec) node()      {}
func (*Axpy) node()         {}
func (*SumStore) node()     {}
func (*ResetCounter) node() {}
func (*Redistribute) node() {}

// ---------------------------------------------------------------------------
// Pretty printing

func pad(n int) string { return strings.Repeat("  ", n) }

// Pretty renders the loop and its body.
func (n *Loop) Pretty(indent int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%sdo %s = 0, %s-1\n", pad(indent), n.Var, n.Count.String())
	for _, s := range n.Body {
		b.WriteString(s.Pretty(indent + 1))
	}
	fmt.Fprintf(&b, "%send do\n", pad(indent))
	return b.String()
}

// Pretty renders the slab read.
func (n *ReadSlab) Pretty(indent int) string {
	hint := ""
	if n.Stream {
		hint = "  ! sequential: may prefetch"
	}
	halo := ""
	if n.Ghosts != "" {
		halo = fmt.Sprintf(", halo=(%d,%d) from %s", n.Left, n.Right, n.Ghosts)
	}
	return fmt.Sprintf("%scall read_slab(%s, slab=%s%s) -> %s%s\n", pad(indent), n.Array, n.Index, halo, n.Buf, hint)
}

// Pretty renders the staging allocation.
func (n *NewStaging) Pretty(indent int) string {
	return fmt.Sprintf("%s%s = new_staging(%s, rows like %s)\n", pad(indent), n.Buf, n.Array, n.RowsLike)
}

// Pretty renders the auto-staging declaration.
func (n *AutoStage) Pretty(indent int) string {
	return fmt.Sprintf("%sauto_stage(%s)  ! write ICLA of %s when full\n", pad(indent), n.Array, n.Array)
}

// Pretty renders the staging flush.
func (n *FlushStage) Pretty(indent int) string {
	return fmt.Sprintf("%scall flush_staging(%s)\n", pad(indent), n.Array)
}

// Pretty renders the buffer write-back.
func (n *WriteBuf) Pretty(indent int) string {
	return fmt.Sprintf("%scall write_slab(%s) <- %s\n", pad(indent), n.Array, n.Buf)
}

// Pretty renders the vector clear.
func (n *ZeroVec) Pretty(indent int) string {
	like := n.RowsLike
	if like == "" {
		like = "local_rows(" + n.RowsOfArray + ")"
	}
	return fmt.Sprintf("%s%s = zeros(rows of %s)\n", pad(indent), n.Vec, like)
}

// Pretty renders the accumulation.
func (n *Axpy) Pretty(indent int) string {
	row := n.BRowBase
	if n.BRowScale != "" {
		row = fmt.Sprintf("%s*slab_width(%s)", n.BRowBase, n.BRowScale)
	}
	if n.BRowPlus != "" {
		if row != "" {
			row += "+" + n.BRowPlus
		} else {
			row = n.BRowPlus
		}
	}
	return fmt.Sprintf("%s%s = %s + %s(:,%s)*%s(%s,%s)\n",
		pad(indent), n.Vec, n.Vec, n.A, n.ACol, n.B, row, n.BCol)
}

// Pretty renders the reduction + owner store.
func (n *SumStore) Pretty(indent int) string {
	return fmt.Sprintf("%scall global_sum(%s) -> owner of column(global_index) of %s stores it; global_index=global_index+1\n",
		pad(indent), n.Vec, n.Array)
}

// Pretty renders the counter reset.
func (n *ResetCounter) Pretty(indent int) string {
	return fmt.Sprintf("%sglobal_index = 0\n", pad(indent))
}

// Pretty renders the collective redistribution.
func (n *Redistribute) Pretty(indent int) string {
	op := "redistribute"
	if n.Transpose {
		op = "transpose"
	}
	return fmt.Sprintf("%scall collective_%s(%s -> %s, method=%s, mem=%d)\n",
		pad(indent), op, n.Src, n.Dst, n.Method, n.MemElems)
}

// String renders the whole program as annotated pseudo-code.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "! %s: N=%d over %d processors, strategy=%s\n", p.Name, p.N, p.Procs, p.Strategy)
	if rt := p.Runtime; rt != (oocarray.Options{}) {
		fmt.Fprintf(&b, "! runtime: sieve=%t prefetch=%t write-behind=%t\n", rt.Sieve, rt.Prefetch, rt.WriteBehind)
	}
	for _, a := range p.Arrays {
		fmt.Fprintf(&b, "! array %s(%d,%d) dist=(%s,%s) role=%s slab=%d elems (%s)\n",
			a.Name, a.Rows, a.Cols, a.RowScheme, a.ColScheme, a.Role, a.SlabElems, a.SlabDim)
	}
	for _, n := range p.Notes {
		fmt.Fprintf(&b, "! note: %s\n", n)
	}
	for _, n := range p.Body {
		b.WriteString(n.Pretty(0))
	}
	return b.String()
}

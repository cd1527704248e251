package plan

import (
	"fmt"
	"strconv"
)

// EExpr is an elementwise expression over slab buffers: the compiled
// form of a FORALL assignment's right-hand side such as
// z(1:n,k) = 2*x(1:n,k) + y(1:n,k) - 1.
type EExpr interface {
	eexpr()
	// Ops counts arithmetic operations per element.
	Ops() int
	String() string
}

// EConst is a scalar constant.
type EConst struct{ V float64 }

// EBuf reads a slab buffer. An aligned leaf reads the element of Buf at
// the output element's position (Buf has the output's geometry). A column
// leaf (Array set: the shifted reference Array(r+Row,k+Off), read through
// buffer Buf) reads column k+Off of Buf for the output's local column k,
// row r+Row for the output's row r; only a bounded Ewise may give a leaf
// a nonzero Off or Row.
type EBuf struct {
	Buf   string
	Array string
	Off   int
	Row   int
}

// EBin combines two subexpressions with '+', '-', '*' or '/'.
type EBin struct {
	Op   byte
	L, R EExpr
}

func (*EConst) eexpr() {}
func (*EBuf) eexpr()   {}
func (*EBin) eexpr()   {}

// Ops of a constant is zero.
func (*EConst) Ops() int { return 0 }

// Ops of a buffer load is zero.
func (*EBuf) Ops() int { return 0 }

// Ops counts the node and its children.
func (e *EBin) Ops() int { return 1 + e.L.Ops() + e.R.Ops() }

func (e *EConst) String() string { return strconv.FormatFloat(e.V, 'g', -1, 64) }
func (e *EBuf) String() string {
	if e.Array == "" {
		return e.Buf + "(:)"
	}
	return e.Array + "(" + shifted(":", "r", e.Row) + "," + shifted("k", "k", e.Off) + ")"
}

// shifted renders a subscript: at, or index plus a nonzero offset.
func shifted(at, index string, off int) string {
	switch {
	case off > 0:
		return index + "+" + strconv.Itoa(off)
	case off < 0:
		return index + strconv.Itoa(off)
	}
	return at
}
func (e *EBin) String() string {
	return fmt.Sprintf("(%s%c%s)", e.L.String(), e.Op, e.R.String())
}

// NewSlab allocates a zeroed output buffer positioned like slab Index of
// Array's decomposition (the output-side counterpart of ReadSlab).
type NewSlab struct {
	Array string
	Index string
	Buf   string
}

// Ewise evaluates Expr elementwise into buffer Out. All buffers
// referenced by Expr must have Out's geometry (they are slabs of aligned
// arrays at the same slab index), unless the statement is bounded:
// Array, when set, names the array Out is a slab of, and only Out's
// columns whose global index lies in Lo..Hi (0-based, inclusive) are
// evaluated, column by column and so at any leaf offset; the other
// columns keep their contents (HPF FORALL bounds). Top and Bottom leave
// that many rows at either end of every evaluated column untouched too
// (the target's row section; zero for 1:n), so that a leaf may read its
// column at a row offset.
type Ewise struct {
	Out         string
	Expr        EExpr
	Array       string
	Lo, Hi      int
	Top, Bottom int
}

// Exchange is a shifted FORALL's communication: for each Arrays[i], the
// Left columns just below this processor's block and the Right columns
// just above it arrive from the neighbors in ghost buffer Ghosts[i].
type Exchange struct {
	Arrays, Ghosts []string
	Left, Right    int
}

func (*NewSlab) node()  {}
func (*Ewise) node()    {}
func (*Exchange) node() {}

// Pretty renders the output-slab allocation.
func (n *NewSlab) Pretty(indent int) string {
	return fmt.Sprintf("%s%s = new_slab(%s, slab=%s)\n", pad(indent), n.Buf, n.Array, n.Index)
}

// Pretty renders the elementwise statement.
func (n *Ewise) Pretty(indent int) string {
	if n.Array == "" {
		return fmt.Sprintf("%s%s(:) = %s\n", pad(indent), n.Out, n.Expr.String())
	}
	rows := ":"
	if n.Top != 0 || n.Bottom != 0 {
		rows = fmt.Sprintf("%d:%s", n.Top+1, shifted("n", "n", -n.Bottom))
	}
	return fmt.Sprintf("%sforall k = %d..%d of %s: %s(%s,k) = %s\n",
		pad(indent), n.Lo+1, n.Hi+1, n.Array, n.Out, rows, n.Expr.String())
}

// Pretty renders the boundary-column exchange.
func (n *Exchange) Pretty(indent int) string {
	return fmt.Sprintf("%scall shift_exchange(ghosts: left=%d, right=%d) %v -> %v\n",
		pad(indent), n.Left, n.Right, n.Arrays, n.Ghosts)
}

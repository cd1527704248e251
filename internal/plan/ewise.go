package plan

import (
	"fmt"
	"strconv"
	"unicode/utf8"
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

func (e *EConst) String() string { return string(appendExpr(nil, e)) }
func (e *EBuf) String() string   { return string(appendExpr(nil, e)) }
func (e *EBin) String() string   { return string(appendExpr(nil, e)) }

// appendExpr appends e's rendering, the one String returns: constants in
// their shortest exact form, leaves with their row and column offsets.
func appendExpr(b []byte, e EExpr) []byte {
	switch e := e.(type) {
	case *EConst:
		return strconv.AppendFloat(b, e.V, 'g', -1, 64)
	case *EBuf:
		if e.Array == "" {
			return append(append(b, e.Buf...), "(:)"...)
		}
		b = append(append(b, e.Array...), '(')
		b = appendShifted(b, ":", "r", e.Row)
		b = appendShifted(append(b, ','), "k", "k", e.Off)
		return append(b, ')')
	case *EBin:
		b = appendExpr(append(b, '('), e.L)
		b = utf8.AppendRune(b, rune(e.Op))
		return append(appendExpr(b, e.R), ')')
	default: // a nil expression, as %s renders it
		return append(b, "%!s(<nil>)"...)
	}
}

// appendShifted appends a subscript: at, or index plus a nonzero offset.
func appendShifted(b []byte, at, index string, off int) []byte {
	if off == 0 {
		return append(b, at...)
	}
	b = append(b, index...)
	if off > 0 {
		b = append(b, '+')
	}
	return strconv.AppendInt(b, int64(off), 10)
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
		rows = fmt.Sprintf("%d:%s", n.Top+1, appendShifted(nil, "n", "n", -n.Bottom))
	}
	return fmt.Sprintf("%sforall k = %d..%d of %s: %s(%s,k) = %s\n",
		pad(indent), n.Lo+1, n.Hi+1, n.Array, n.Out, rows, n.Expr.String())
}

// Pretty renders the boundary-column exchange.
func (n *Exchange) Pretty(indent int) string {
	return fmt.Sprintf("%scall shift_exchange(ghosts: left=%d, right=%d) %v -> %v\n",
		pad(indent), n.Left, n.Right, n.Arrays, n.Ghosts)
}

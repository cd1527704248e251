package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"github.com/ooc-hpf/passion/internal/oocarray"
)

// Fingerprint returns a stable canonical hash of the compiled program:
// the plan tree, every array's distribution and strip-mining decision,
// the compiler's notes and, when any is set, the runtime switches. Two
// programs share a fingerprint exactly when a cached execution of one is
// a valid execution of the other, so the serving layer uses it as the
// identity of a compiled plan. A plan without runtime switches hashes no
// runtime line.
//
// extra carries cache-key material that is not part of the plan itself —
// the machine's cost parameters, the memory size — as key/value pairs.
// The pairs are folded in sorted key order, so the fingerprint is
// insensitive to map iteration order but sensitive to every entry.
func Fingerprint(p *Program, extra map[string]string) string {
	// The canonical bytes of every testdata program stay under 1 KiB, so
	// they are built on the stack; a larger program spills to the heap.
	var scratch [2048]byte
	b := appendCanonical(scratch[:0], p, extra)
	sum := sha256.Sum256(b)
	return string(hex.AppendEncode(b[:0], sum[:16]))
}

// appendCanonical appends the bytes Fingerprint hashes: one line per
// header, runtime switch set, array, note, IR node and extra pair.
func appendCanonical(b []byte, p *Program, extra map[string]string) []byte {
	b = append(b, "plan/v1|"...)
	b = append(b, p.Name...)
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, int64(p.N), 10)
	b = append(b, "|p="...)
	b = strconv.AppendInt(b, int64(p.Procs), 10)
	b = append(b, "|strategy="...)
	b = append(b, p.Strategy...)
	b = append(b, '\n')
	if rt := p.Runtime; rt != (oocarray.Options{}) {
		b = fmt.Appendf(b, "runtime|sieve=%t|prefetch=%t|writebehind=%t\n", rt.Sieve, rt.Prefetch, rt.WriteBehind)
	}
	for _, a := range p.Arrays {
		b = append(b, "array|"...)
		b = append(b, a.Name...)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(a.Rows), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(a.Cols), 10)
		b = append(b, '|')
		b = append(b, a.RowScheme.String()...)
		b = append(b, ',')
		b = append(b, a.ColScheme.String()...)
		b = append(b, "|grid=["...)
		for i, g := range a.Grid {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(g), 10)
		}
		b = append(b, "]|role="...)
		b = append(b, a.Role.String()...)
		b = append(b, "|slab="...)
		b = strconv.AppendInt(b, int64(a.SlabElems), 10)
		b = append(b, '@')
		b = append(b, a.SlabDim.String()...)
		b = append(b, '\n')
	}
	for _, n := range p.Notes {
		b = append(b, "note|"...)
		b = append(b, n...)
		b = append(b, '\n')
	}
	for _, n := range p.Body {
		b = appendNode(b, n)
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = append(b, "extra|"...)
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, extra[k]...)
		b = append(b, '\n')
	}
	return b
}

// appendNode appends one IR node (and, for loops, its body) with an
// explicit type tag per field, so two nodes of different kinds can never
// collide on a shared rendering.
func appendNode(b []byte, n Node) []byte {
	switch n := n.(type) {
	case *Loop:
		b = appendFields(b, "loop", n.Var)
		b = n.Count.appendTo(append(b, '|'))
		b = append(b, "{\n"...)
		for _, s := range n.Body {
			b = appendNode(b, s)
		}
		return append(b, "}\n"...)
	case *ReadSlab:
		b = appendFields(b, "read", n.Array, n.Index, n.Buf)
		b = strconv.AppendBool(append(b, "|stream="...), n.Stream)
		if n.Ghosts != "" {
			b = append(append(b, "|halo="...), n.Ghosts...)
			b = strconv.AppendInt(append(b, ','), int64(n.Left), 10)
			b = strconv.AppendInt(append(b, ','), int64(n.Right), 10)
		}
		return append(b, '\n')
	case *NewStaging:
		return appendLine(b, "staging", n.Array, n.Buf, n.RowsLike)
	case *AutoStage:
		return appendLine(b, "autostage", n.Array)
	case *FlushStage:
		return appendLine(b, "flush", n.Array)
	case *WriteBuf:
		return appendLine(b, "write", n.Array, n.Buf)
	case *ZeroVec:
		return appendLine(b, "zerovec", n.Vec, n.RowsLike, n.RowsOfArray)
	case *Axpy:
		return appendLine(b, "axpy", n.Vec, n.A, n.ACol, n.B, n.BRowBase, n.BRowScale, n.BRowPlus, n.BCol)
	case *SumStore:
		return appendLine(b, "sumstore", n.Vec, n.Array)
	case *ResetCounter:
		return appendLine(b, "resetcounter")
	case *NewSlab:
		return appendLine(b, "newslab", n.Array, n.Index, n.Buf)
	case *Ewise:
		// The rendering names every leaf with its row and column offsets,
		// and every constant in its shortest exact form.
		b = appendFields(b, "ewise", n.Out)
		b = append(append(b, "|bounds="...), n.Array...)
		b = strconv.AppendInt(append(b, ','), int64(n.Lo), 10)
		b = strconv.AppendInt(append(b, ','), int64(n.Hi), 10)
		if n.Top != 0 || n.Bottom != 0 {
			b = strconv.AppendInt(append(b, "|rows="...), int64(n.Top), 10)
			b = strconv.AppendInt(append(b, ','), int64(n.Bottom), 10)
		}
		return append(appendExpr(append(b, '|'), n.Expr), '\n')
	case *Exchange:
		b = appendJoined(append(b, "exchange|"...), n.Arrays)
		b = appendJoined(append(b, '|'), n.Ghosts)
		b = strconv.AppendInt(append(b, '|'), int64(n.Left), 10)
		b = strconv.AppendInt(append(b, '|'), int64(n.Right), 10)
		return append(b, '\n')
	case *Redistribute:
		b = appendFields(b, "redistribute", n.Src, n.Dst)
		b = strconv.AppendBool(append(b, "|transpose="...), n.Transpose)
		b = append(append(b, '|'), n.Method...)
		b = strconv.AppendInt(append(b, "|mem="...), int64(n.MemElems), 10)
		return append(b, '\n')
	default:
		// An unknown node kind must not silently alias an existing
		// fingerprint; fold in its full debug rendering instead.
		return fmt.Appendf(b, "unknown|%T|%+v\n", n, n)
	}
}

// appendFields appends tag and then each field after a '|'.
func appendFields(b []byte, tag string, fields ...string) []byte {
	b = append(b, tag...)
	for _, f := range fields {
		b = append(append(b, '|'), f...)
	}
	return b
}

// appendLine appends tag|field|...|field and a newline.
func appendLine(b []byte, tag string, fields ...string) []byte {
	return append(appendFields(b, tag, fields...), '\n')
}

// appendJoined appends the strings separated by commas.
func appendJoined(b []byte, s []string) []byte {
	for i, x := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, x...)
	}
	return b
}

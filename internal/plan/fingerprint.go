package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Fingerprint returns a stable canonical hash of the compiled program:
// the plan tree, every array's distribution and strip-mining decision,
// and the compiler's notes. Two programs share a fingerprint exactly
// when a cached execution of one is a valid execution of the other, so
// the serving layer uses it as the identity of a compiled plan.
//
// extra carries cache-key material that is not part of the plan itself —
// machine cost parameters, runtime switches — as key/value pairs. The
// pairs are folded in sorted key order, so the fingerprint is
// insensitive to map iteration order but sensitive to every entry.
func Fingerprint(p *Program, extra map[string]string) string {
	h := sha256.New()
	fmt.Fprintf(h, "plan/v1|%s|n=%d|p=%d|strategy=%s\n", p.Name, p.N, p.Procs, p.Strategy)
	for _, a := range p.Arrays {
		fmt.Fprintf(h, "array|%s|%dx%d|%s,%s|grid=%v|role=%s|slab=%d@%s\n",
			a.Name, a.Rows, a.Cols, a.RowScheme, a.ColScheme, a.Grid, a.Role, a.SlabElems, a.SlabDim)
	}
	for _, n := range p.Notes {
		fmt.Fprintf(h, "note|%s\n", n)
	}
	for _, n := range p.Body {
		hashNode(h, n)
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "extra|%s=%s\n", k, extra[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// hashNode folds one IR node (and, for loops, its body) into the hash
// with an explicit type tag per field, so two nodes of different kinds
// can never collide on a shared rendering.
func hashNode(w io.Writer, n Node) {
	switch n := n.(type) {
	case *Loop:
		fmt.Fprintf(w, "loop|%s|%s{\n", n.Var, n.Count)
		for _, b := range n.Body {
			hashNode(w, b)
		}
		fmt.Fprint(w, "}\n")
	case *ReadSlab:
		if n.Ghosts == "" {
			fmt.Fprintf(w, "read|%s|%s|%s|stream=%t\n", n.Array, n.Index, n.Buf, n.Stream)
		} else {
			fmt.Fprintf(w, "read|%s|%s|%s|stream=%t|halo=%s,%d,%d\n",
				n.Array, n.Index, n.Buf, n.Stream, n.Ghosts, n.Left, n.Right)
		}
	case *NewStaging:
		fmt.Fprintf(w, "staging|%s|%s|%s\n", n.Array, n.Buf, n.RowsLike)
	case *AutoStage:
		fmt.Fprintf(w, "autostage|%s\n", n.Array)
	case *FlushStage:
		fmt.Fprintf(w, "flush|%s\n", n.Array)
	case *WriteBuf:
		fmt.Fprintf(w, "write|%s|%s\n", n.Array, n.Buf)
	case *ZeroVec:
		fmt.Fprintf(w, "zerovec|%s|%s|%s\n", n.Vec, n.RowsLike, n.RowsOfArray)
	case *Axpy:
		fmt.Fprintf(w, "axpy|%s|%s|%s|%s|%s|%s|%s|%s\n",
			n.Vec, n.A, n.ACol, n.B, n.BRowBase, n.BRowScale, n.BRowPlus, n.BCol)
	case *SumStore:
		fmt.Fprintf(w, "sumstore|%s|%s\n", n.Vec, n.Array)
	case *ResetCounter:
		fmt.Fprint(w, "resetcounter\n")
	case *NewSlab:
		fmt.Fprintf(w, "newslab|%s|%s|%s\n", n.Array, n.Index, n.Buf)
	case *Ewise:
		// The rendering names every leaf with its row and column offsets,
		// and every constant in its shortest exact form.
		if n.Top == 0 && n.Bottom == 0 {
			fmt.Fprintf(w, "ewise|%s|bounds=%s,%d,%d|%s\n", n.Out, n.Array, n.Lo, n.Hi, n.Expr)
		} else {
			fmt.Fprintf(w, "ewise|%s|bounds=%s,%d,%d|rows=%d,%d|%s\n", n.Out, n.Array, n.Lo, n.Hi, n.Top, n.Bottom, n.Expr)
		}
	case *Exchange:
		fmt.Fprintf(w, "exchange|%s|%s|%d|%d\n", strings.Join(n.Arrays, ","), strings.Join(n.Ghosts, ","), n.Left, n.Right)
	case *Redistribute:
		fmt.Fprintf(w, "redistribute|%s|%s|transpose=%t|%s|mem=%d\n",
			n.Src, n.Dst, n.Transpose, n.Method, n.MemElems)
	default:
		// An unknown node kind must not silently alias an existing
		// fingerprint; fold in its full debug rendering instead.
		fmt.Fprintf(w, "unknown|%T|%+v\n", n, n)
	}
}

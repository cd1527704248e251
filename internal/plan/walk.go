package plan

import (
	"fmt"
	"strings"
)

// NodeLabel names an IR node for trace overlays and disassembly: loops by
// their variable, redistributions by their endpoints, everything else by
// its bare type name. The bytecode compiler stores it as the node's
// KindNode span label, so timelines name nodes the way the plan does.
func NodeLabel(n Node) string {
	switch n := n.(type) {
	case *Loop:
		return "loop " + n.Var
	case *Redistribute:
		return "redistribute " + n.Src + "->" + n.Dst
	default:
		return strings.TrimPrefix(fmt.Sprintf("%T", n), "*plan.")
	}
}

// HasSumStore reports whether the body (recursively) performs a SumStore.
// SumStore's reductions force globally uniform iteration counts, which is
// what makes a loop's iteration boundaries collective-safe checkpoint
// points: the bytecode compiler lowers a top-level loop it holds for to
// LOOP_CKPT, the only loop a checkpoint may commit inside.
func HasSumStore(body []Node) bool {
	for _, n := range body {
		switch n := n.(type) {
		case *SumStore:
			return true
		case *Loop:
			if HasSumStore(n.Body) {
				return true
			}
		}
	}
	return false
}

package plan

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
	case *ReadSlab:
		return "ReadSlab"
	case *NewSlab:
		return "NewSlab"
	case *NewStaging:
		return "NewStaging"
	case *AutoStage:
		return "AutoStage"
	case *FlushStage:
		return "FlushStage"
	case *WriteBuf:
		return "WriteBuf"
	case *ZeroVec:
		return "ZeroVec"
	case *Axpy:
		return "Axpy"
	case *SumStore:
		return "SumStore"
	case *ResetCounter:
		return "ResetCounter"
	case *Ewise:
		return "Ewise"
	case *Exchange:
		return "Exchange"
	}
	return ""
}

// Uniform reports whether every rank runs the same trips of loop l,
// which makes a top-level loop's iteration boundaries collective-safe
// checkpoint points: its count is a literal (a time loop), or its body
// performs a SumStore, whose reductions force globally uniform trip
// counts. The bytecode compiler lowers a top-level loop it holds for to
// LOOP_CKPT, the only loop a checkpoint may commit inside.
func Uniform(l *Loop) bool {
	return l.Count.SlabsOf == "" && l.Count.ColsOf == "" || hasSumStore(l.Body)
}

func hasSumStore(body []Node) bool {
	for _, n := range body {
		switch n := n.(type) {
		case *SumStore:
			return true
		case *Loop:
			if hasSumStore(n.Body) {
				return true
			}
		}
	}
	return false
}

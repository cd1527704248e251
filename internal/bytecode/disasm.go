package bytecode

import (
	"fmt"
	"strings"

	"github.com/ooc-hpf/passion/internal/collio"
)

// Disassemble renders the program as human-readable bytecode: a header,
// the operand tables, the expression programs, then one line per
// instruction with its pc, opcode and symbolically resolved operands.
// ooc-compile -bytecode prints it so the lowering of any plan can be
// inspected next to its pseudo-code.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; %s: N=%d over %d processors, strategy=%s\n", p.Name, p.N, p.Procs, p.Strategy)
	fmt.Fprintf(&b, "; fingerprint=%s version=%d\n", p.Fingerprint, Version)
	for i, a := range p.Arrays {
		fmt.Fprintf(&b, "; array[%d] %s(%dx%d) slab=%d elems (%s)\n", i, a.Name, a.Rows, a.Cols, a.SlabElems, a.SlabDim)
	}
	if len(p.VarNames) > 0 {
		fmt.Fprintf(&b, "; vars: %s\n", strings.Join(p.VarNames, ", "))
	}
	if len(p.BufNames) > 0 {
		fmt.Fprintf(&b, "; bufs: %s\n", strings.Join(p.BufNames, ", "))
	}
	if len(p.VecNames) > 0 {
		fmt.Fprintf(&b, "; vecs: %s\n", strings.Join(p.VecNames, ", "))
	}
	for i, code := range p.Exprs {
		fmt.Fprintf(&b, "; expr[%d]:", i)
		for _, ins := range code {
			switch ins.Op {
			case EPushConst:
				fmt.Fprintf(&b, " push %g", ins.Val)
			case EPushBuf:
				fmt.Fprintf(&b, " push %s", p.bufName(ins.A))
				if ins.B != 0 {
					fmt.Fprintf(&b, "[%+d]", ins.B)
				}
				if ins.C != 0 {
					fmt.Fprintf(&b, "[row%+d]", ins.C)
				}
			case EAdd:
				b.WriteString(" add")
			case ESub:
				b.WriteString(" sub")
			case EMul:
				b.WriteString(" mul")
			case EDiv:
				b.WriteString(" div")
			default:
				fmt.Fprintf(&b, " %s", ins.Op)
			}
		}
		b.WriteByte('\n')
	}
	indent := 0
	for pc, ins := range p.Code {
		if ins.Op == OpEndLoop && indent > 0 {
			indent--
		}
		fmt.Fprintf(&b, "%4d  %s%-13s%s\n", pc, strings.Repeat("  ", indent), ins.Op, p.operands(ins))
		if ins.Op == OpLoop || ins.Op == OpLoopCkpt {
			indent++
		}
	}
	return b.String()
}

func (p *Program) arrayName(i int32) string {
	if i >= 0 && int(i) < len(p.Arrays) {
		return p.Arrays[i].Name
	}
	return fmt.Sprintf("array?%d", i)
}

func (p *Program) bufName(i int32) string {
	if i >= 0 && int(i) < len(p.BufNames) {
		return p.BufNames[i]
	}
	return fmt.Sprintf("buf?%d", i)
}

func (p *Program) varName(i int32) string {
	if i >= 0 && int(i) < len(p.VarNames) {
		return p.VarNames[i]
	}
	return fmt.Sprintf("var?%d", i)
}

func (p *Program) vecName(i int32) string {
	if i >= 0 && int(i) < len(p.VecNames) {
		return p.VecNames[i]
	}
	return fmt.Sprintf("vec?%d", i)
}

func (p *Program) labelName(i int32) string {
	if i >= 0 && int(i) < len(p.Labels) {
		return p.Labels[i]
	}
	return fmt.Sprintf("label?%d", i)
}

// operands renders one instruction's operand list symbolically.
func (p *Program) operands(ins Instr) string {
	switch ins.Op {
	case OpCkptInit:
		return ""
	case OpNodeEnter, OpNodeExit:
		return fmt.Sprintf(" node=%d %q", ins.A, p.labelName(ins.B))
	case OpCkpt:
		return fmt.Sprintf(" cursor=(%d,0)", ins.A)
	case OpLoop, OpLoopCkpt:
		count := ""
		switch ins.B {
		case CountLit:
			count = fmt.Sprintf("%d", ins.C)
		case CountSlabs:
			count = "slabs(" + p.arrayName(ins.C) + ")"
		case CountCols:
			count = "cols(" + p.bufName(ins.C) + ")"
		}
		s := fmt.Sprintf(" %s=0..%s-1 exit=%d", p.varName(ins.A), count, ins.D)
		if ins.Op == OpLoopCkpt {
			s += fmt.Sprintf(" ckpt-node=%d", ins.E)
		}
		return s
	case OpEndLoop:
		return fmt.Sprintf(" loop=%d", ins.A)
	case OpLoadSlab:
		s := fmt.Sprintf(" %s[%s] -> %s", p.arrayName(ins.A), p.varName(ins.B), p.bufName(ins.C))
		switch ins.D {
		case 1:
			s += fmt.Sprintf(" stream reader=%d", ins.E)
		case 2:
			s += fmt.Sprintf(" halo=(%d,%d) ghosts=%s", ins.F, ins.G, p.bufName(ins.E))
		}
		return s
	case OpNewStaging:
		return fmt.Sprintf(" %s rows-like %s -> %s", p.arrayName(ins.A), p.bufName(ins.B), p.bufName(ins.C))
	case OpAutoStage, OpFlushStage:
		return " " + p.arrayName(ins.A)
	case OpStoreSlab:
		return fmt.Sprintf(" %s <- %s", p.arrayName(ins.A), p.bufName(ins.B))
	case OpZeroVec:
		if ins.B >= 0 {
			return fmt.Sprintf(" %s rows-like %s", p.vecName(ins.A), p.bufName(ins.B))
		}
		return fmt.Sprintf(" %s rows-of %s", p.vecName(ins.A), p.arrayName(ins.C))
	case OpAxpy:
		row := ""
		if ins.E >= 0 {
			row = p.varName(ins.E)
			if ins.F >= 0 {
				row += "*slab_width(" + p.arrayName(ins.F) + ")"
			}
		}
		if ins.G >= 0 {
			if row != "" {
				row += "+"
			}
			row += p.varName(ins.G)
		}
		if row == "" {
			row = "0"
		}
		return fmt.Sprintf(" %s += %s(:,%s) * %s(%s,%s)",
			p.vecName(ins.A), p.bufName(ins.B), p.varName(ins.C), p.bufName(ins.D), row, p.varName(ins.H))
	case OpSumStore:
		return fmt.Sprintf(" %s -> %s", p.vecName(ins.A), p.arrayName(ins.B))
	case OpResetCounter:
		return ""
	case OpNewSlab:
		return fmt.Sprintf(" %s[%s] -> %s", p.arrayName(ins.A), p.varName(ins.B), p.bufName(ins.C))
	case OpEwise:
		s := fmt.Sprintf(" %s = expr[%d] ops/elem=%d", p.bufName(ins.A), ins.B, ins.C)
		if ins.D >= 0 {
			s += fmt.Sprintf(" cols=[%d,%d] of %s", ins.E, ins.F, p.arrayName(ins.D))
			if ins.G != 0 || ins.H != 0 {
				s += fmt.Sprintf(" rows less (%d,%d)", ins.G, ins.H)
			}
		}
		return s
	case OpExchange:
		return fmt.Sprintf(" %s -> %s ghosts=(%d,%d) position=%d",
			p.arrayName(ins.A), p.bufName(ins.B), ins.C, ins.D, ins.E)
	case OpAllToAll:
		op := "redistribute"
		if ins.C == 1 {
			op = "transpose"
		}
		return fmt.Sprintf(" %s %s -> %s method=%s mem=%d",
			op, p.arrayName(ins.A), p.arrayName(ins.B), collio.Method(ins.D), ins.E)
	default:
		return fmt.Sprintf(" A=%d B=%d C=%d D=%d E=%d F=%d G=%d H=%d",
			ins.A, ins.B, ins.C, ins.D, ins.E, ins.F, ins.G, ins.H)
	}
}

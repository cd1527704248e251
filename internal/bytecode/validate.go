package bytecode

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/collio"
)

// Validate structurally checks the program: every opcode is known, every
// operand indexes its table, loops nest and backpatch consistently, the
// node jump table points at OpNodeEnter instructions, and every
// expression program observes stack discipline (no underflow, exactly one
// result), with row and column offsets only in a bounded EWISE. Compile
// runs it on its own output as insurance; Decode runs it so a stream that
// frames and checksums correctly but encodes garbage is still rejected
// before execution.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("%w: empty code stream", ErrMalformed)
	}
	slot := func(pc int, v int32, n int, what string) error {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("%w: pc %d: %s %d out of range [0,%d)", ErrMalformed, pc, what, v, n)
		}
		return nil
	}
	optSlot := func(pc int, v int32, n int, what string) error {
		if v == -1 {
			return nil
		}
		return slot(pc, v, n, what)
	}
	var loops []int32
	for pc, ins := range p.Code {
		if ins.Op <= OpInvalid || ins.Op >= opCount {
			return fmt.Errorf("%w: pc %d: unknown opcode %d", ErrMalformed, pc, uint8(ins.Op))
		}
		var err error
		switch ins.Op {
		case OpNodeEnter, OpNodeExit:
			if err = slot(pc, ins.A, len(p.NodePC), "node index"); err == nil {
				err = slot(pc, ins.B, len(p.Labels), "label index")
			}
		case OpCkpt:
			err = slot(pc, ins.A, len(p.NodePC), "node index")
		case OpLoop, OpLoopCkpt:
			if err = slot(pc, ins.A, len(p.VarNames), "variable slot"); err != nil {
				break
			}
			switch ins.B {
			case CountLit:
				if ins.C < 0 {
					err = fmt.Errorf("%w: pc %d: negative literal loop count %d", ErrMalformed, pc, ins.C)
				}
			case CountSlabs:
				err = slot(pc, ins.C, len(p.Arrays), "array index")
			case CountCols:
				err = slot(pc, ins.C, len(p.BufNames), "buffer slot")
			default:
				err = fmt.Errorf("%w: pc %d: unknown count kind %d", ErrMalformed, pc, ins.B)
			}
			if err == nil && (ins.D <= int32(pc) || int(ins.D) > len(p.Code)) {
				err = fmt.Errorf("%w: pc %d: loop exit target %d outside (%d,%d]", ErrMalformed, pc, ins.D, pc, len(p.Code))
			}
			if err == nil && ins.Op == OpLoopCkpt {
				err = slot(pc, ins.E, len(p.NodePC), "checkpoint node index")
			}
			if err == nil {
				loops = append(loops, int32(pc))
			}
		case OpEndLoop:
			if len(loops) == 0 {
				return fmt.Errorf("%w: pc %d: END_LOOP without an open loop", ErrMalformed, pc)
			}
			open := loops[len(loops)-1]
			loops = loops[:len(loops)-1]
			if ins.A != open {
				return fmt.Errorf("%w: pc %d: END_LOOP names loop %d, innermost open loop is %d", ErrMalformed, pc, ins.A, open)
			}
			if p.Code[open].D != int32(pc)+1 {
				return fmt.Errorf("%w: pc %d: loop at %d exits to %d, not past its END_LOOP", ErrMalformed, pc, open, p.Code[open].D)
			}
		case OpLoadSlab:
			if err = slot(pc, ins.A, len(p.Arrays), "array index"); err != nil {
				break
			}
			if err = slot(pc, ins.B, len(p.VarNames), "variable slot"); err != nil {
				break
			}
			if err = slot(pc, ins.C, len(p.BufNames), "buffer slot"); err != nil {
				break
			}
			switch ins.D {
			case 0:
				if ins.E != -1 {
					err = fmt.Errorf("%w: pc %d: reader %d on a non-streaming load", ErrMalformed, pc, ins.E)
				}
			case 1:
				err = slot(pc, ins.E, p.Readers, "reader slot")
			case 2:
				if err = slot(pc, ins.E, len(p.BufNames), "ghost buffer slot"); err == nil && (ins.F < 0 || ins.G < 0) {
					err = fmt.Errorf("%w: pc %d: negative halo widths (%d,%d)", ErrMalformed, pc, ins.F, ins.G)
				}
			default:
				err = fmt.Errorf("%w: pc %d: unknown stream flag %d", ErrMalformed, pc, ins.D)
			}
		case OpNewStaging:
			if err = slot(pc, ins.A, len(p.Arrays), "array index"); err == nil {
				if err = slot(pc, ins.B, len(p.BufNames), "buffer slot"); err == nil {
					err = slot(pc, ins.C, len(p.BufNames), "buffer slot")
				}
			}
		case OpAutoStage, OpFlushStage:
			err = slot(pc, ins.A, len(p.Arrays), "array index")
		case OpStoreSlab:
			if err = slot(pc, ins.A, len(p.Arrays), "array index"); err == nil {
				err = slot(pc, ins.B, len(p.BufNames), "buffer slot")
			}
		case OpZeroVec:
			if err = slot(pc, ins.A, len(p.VecNames), "vector slot"); err != nil {
				break
			}
			if (ins.B == -1) == (ins.C == -1) {
				err = fmt.Errorf("%w: pc %d: ZERO_VEC needs exactly one of rows-like buffer and array", ErrMalformed, pc)
				break
			}
			if err = optSlot(pc, ins.B, len(p.BufNames), "buffer slot"); err == nil {
				err = optSlot(pc, ins.C, len(p.Arrays), "array index")
			}
		case OpAxpy:
			for _, ck := range []struct {
				v    int32
				n    int
				what string
				opt  bool
			}{
				{ins.A, len(p.VecNames), "vector slot", false},
				{ins.B, len(p.BufNames), "buffer slot", false},
				{ins.C, len(p.VarNames), "variable slot", false},
				{ins.D, len(p.BufNames), "buffer slot", false},
				{ins.E, len(p.VarNames), "variable slot", true},
				{ins.F, len(p.Arrays), "array index", true},
				{ins.G, len(p.VarNames), "variable slot", true},
				{ins.H, len(p.VarNames), "variable slot", false},
			} {
				if ck.opt {
					err = optSlot(pc, ck.v, ck.n, ck.what)
				} else {
					err = slot(pc, ck.v, ck.n, ck.what)
				}
				if err != nil {
					break
				}
			}
			if err == nil && ins.E == -1 && ins.F != -1 {
				err = fmt.Errorf("%w: pc %d: AXPY row scale without a row base", ErrMalformed, pc)
			}
		case OpSumStore:
			if err = slot(pc, ins.A, len(p.VecNames), "vector slot"); err == nil {
				err = slot(pc, ins.B, len(p.Arrays), "array index")
			}
		case OpNewSlab:
			if err = slot(pc, ins.A, len(p.Arrays), "array index"); err == nil {
				if err = slot(pc, ins.B, len(p.VarNames), "variable slot"); err == nil {
					err = slot(pc, ins.C, len(p.BufNames), "buffer slot")
				}
			}
		case OpEwise:
			if err = slot(pc, ins.A, len(p.BufNames), "buffer slot"); err != nil {
				break
			}
			if err = slot(pc, ins.B, len(p.Exprs), "expression index"); err != nil {
				break
			}
			if err = optSlot(pc, ins.D, len(p.Arrays), "array index"); err != nil {
				break
			}
			if err = p.validateExpr(int(ins.B)); err != nil {
				break
			}
			if ins.D >= 0 {
				if ins.G < 0 || ins.H < 0 {
					err = fmt.Errorf("%w: pc %d: negative row trims (%d,%d)", ErrMalformed, pc, ins.G, ins.H)
				}
				break
			}
			for i, e := range p.Exprs[ins.B] {
				if e.Op == EPushBuf && (e.B != 0 || e.C != 0) {
					err = fmt.Errorf("%w: pc %d: expr %d op %d: offset (%d,%d) in an unbounded EWISE", ErrMalformed, pc, ins.B, i, e.C, e.B)
					break
				}
			}
		case OpExchange:
			if err = slot(pc, ins.A, len(p.Arrays), "array index"); err != nil {
				break
			}
			if err = slot(pc, ins.B, len(p.BufNames), "buffer slot"); err == nil && (ins.C < 0 || ins.D < 0 || ins.E < 0) {
				err = fmt.Errorf("%w: pc %d: negative ghost widths or position (%d,%d,%d)", ErrMalformed, pc, ins.C, ins.D, ins.E)
			}
		case OpAllToAll:
			if err = slot(pc, ins.A, len(p.Arrays), "array index"); err != nil {
				break
			}
			if err = slot(pc, ins.B, len(p.Arrays), "array index"); err != nil {
				break
			}
			if ins.C != 0 && ins.C != 1 {
				err = fmt.Errorf("%w: pc %d: transpose flag %d", ErrMalformed, pc, ins.C)
				break
			}
			if m := collio.Method(ins.D); m != collio.Direct && m != collio.Sieved && m != collio.TwoPhase {
				err = fmt.Errorf("%w: pc %d: unknown redistribution method %d", ErrMalformed, pc, ins.D)
			}
		}
		if err != nil {
			return err
		}
	}
	if len(loops) != 0 {
		return fmt.Errorf("%w: %d loops never closed", ErrMalformed, len(loops))
	}
	for i, pc := range p.NodePC {
		if pc < 0 || int(pc) >= len(p.Code) || p.Code[pc].Op != OpNodeEnter || p.Code[pc].A != int32(i) {
			return fmt.Errorf("%w: node %d jump table entry %d does not land on its NODE_ENTER", ErrMalformed, i, pc)
		}
	}
	if p.Readers < 0 {
		return fmt.Errorf("%w: negative reader count %d", ErrMalformed, p.Readers)
	}
	return nil
}

// validateExpr checks one postfix expression program: stack discipline
// (never pops an empty stack, leaves exactly one result) and operand
// ranges.
func (p *Program) validateExpr(idx int) error {
	code := p.Exprs[idx]
	depth := 0
	for i, ins := range code {
		switch ins.Op {
		case EPushConst:
			depth++
		case EPushBuf:
			if ins.A < 0 || int(ins.A) >= len(p.BufNames) {
				return fmt.Errorf("%w: expr %d op %d: buffer slot %d out of range", ErrMalformed, idx, i, ins.A)
			}
			depth++
		case EAdd, ESub, EMul, EDiv:
			if depth < 2 {
				return fmt.Errorf("%w: expr %d op %d: operator on a stack of %d", ErrMalformed, idx, i, depth)
			}
			depth--
		default:
			return fmt.Errorf("%w: expr %d op %d: unknown expression opcode %d", ErrMalformed, idx, i, uint8(ins.Op))
		}
	}
	if depth != 1 {
		return fmt.Errorf("%w: expr %d leaves %d results on the stack", ErrMalformed, idx, depth)
	}
	return nil
}

// MaxExprDepth returns the deepest evaluation stack any expression
// program in the table needs; the executor sizes its scratch stack with
// it once instead of growing per evaluation.
func (p *Program) MaxExprDepth() int {
	max := 0
	for _, code := range p.Exprs {
		depth, peak := 0, 0
		for _, ins := range code {
			switch ins.Op {
			case EPushConst, EPushBuf:
				depth++
				if depth > peak {
					peak = depth
				}
			case EAdd, ESub, EMul, EDiv:
				depth--
			}
		}
		if peak > max {
			max = peak
		}
	}
	return max
}

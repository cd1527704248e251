package exec

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
)

// shiftTagBase tags the boundary-column exchange messages.
const shiftTagBase = 101

// shiftInputs returns the distinct arrays an expression program's shifted
// reads reference, as array-table indices in first-use order: the
// ghost-exchange order, which fixes the message tags.
func shiftInputs(code []bytecode.ExprInstr) []int32 {
	var inputs []int32
next:
	for _, ins := range code {
		if ins.Op != bytecode.EPushShift {
			continue
		}
		for _, ai := range inputs {
			if ai == ins.A {
				continue next
			}
		}
		inputs = append(inputs, ins.A)
	}
	return inputs
}

// shiftEwise executes a FORALL with shifted column references
// (SHIFT_EWISE): first the boundary-column exchange with the neighboring
// processors, then a slab sweep with column halos, evaluating the
// expression program for every in-bounds column. The per-element
// operation count is charged to the compute clock for every evaluated
// column, phantom or not.
func (in *interp) shiftEwise(ins *bytecode.Instr) error {
	code := in.code.Exprs[ins.B]
	lo, hi, ghostLeft, ghostRight, opsPerElem := int(ins.C), int(ins.D), int(ins.E), int(ins.F), int64(ins.G)
	inputs := shiftInputs(code)
	out := in.arrays[ins.A]
	rows := out.LocalRows()
	localCols := out.LocalCols()

	// Phase 1: ghost exchange. Indexed by array-table index, ghosts[a][0]
	// holds the ghostLeft columns just below this block, ghosts[a][1] the
	// ghostRight columns just above it (column-major, rows x width).
	ghosts := make([][2][]float64, len(in.arrays))
	defer func() {
		for _, g := range ghosts {
			mp.ReleaseBuf(g[0])
			mp.ReleaseBuf(g[1])
		}
	}()
	rank, size := in.proc.Rank(), in.proc.Size()
	for gi, ai := range inputs {
		arr := in.arrays[ai]
		if arr.LocalCols() != localCols || arr.LocalRows() != rows {
			return fmt.Errorf("exec: shift input %q shape differs from output", in.code.Arrays[ai].Name)
		}
		tag := shiftTagBase + 2*gi
		// Send my last ghostLeft columns rightward (they are the right
		// neighbor's left ghost) and my first ghostRight columns
		// leftward.
		if ghostLeft > 0 && rank < size-1 {
			sec, err := arr.ReadSection(0, localCols-ghostLeft, rows, ghostLeft)
			if err != nil {
				return err
			}
			in.proc.Send(rank+1, tag, sec.Data)
			arr.Recycle(sec)
		}
		if ghostRight > 0 && rank > 0 {
			sec, err := arr.ReadSection(0, 0, rows, ghostRight)
			if err != nil {
				return err
			}
			in.proc.Send(rank-1, tag+1, sec.Data)
			arr.Recycle(sec)
		}
		if ghostLeft > 0 && rank > 0 {
			ghosts[ai][0] = in.proc.Recv(rank-1, tag)
		}
		if ghostRight > 0 && rank < size-1 {
			ghosts[ai][1] = in.proc.Recv(rank+1, tag+1)
		}
	}

	// Phase 2: slab sweep with column halos.
	slb := in.slabs[ins.A]
	colMap := out.Dist().Dims[1]
	halos := make([]*oocarray.ICLA, len(in.arrays))
	for idx := 0; idx < slb.Count; idx++ {
		// The output slab's previous contents are the base: columns
		// outside [lo, hi] keep them.
		staging, err := out.ReadSlab(slb, idx)
		if err != nil {
			return err
		}
		c0, width := staging.ColOff, staging.Cols
		// Halo sections of every input, clipped to the local block.
		h0 := c0 - ghostLeft
		if h0 < 0 {
			h0 = 0
		}
		hEnd := c0 + width + ghostRight
		if hEnd > localCols {
			hEnd = localCols
		}
		for _, ai := range inputs {
			sec, err := in.arrays[ai].ReadSection(0, h0, rows, hEnd-h0)
			if err != nil {
				return err
			}
			halos[ai] = sec
		}
		for c := c0; c < c0+width; c++ {
			k := colMap.ToGlobal(rank, c)
			if k < lo || k > hi {
				continue
			}
			col, err := in.evalShiftCode(code, c, rows, localCols, h0, halos, ghosts)
			if err != nil {
				return err
			}
			if !in.phantom {
				copy(staging.Col(c-c0), col)
			}
			bufpool.PutF64(col)
			in.proc.Compute(opsPerElem * int64(rows))
		}
		if err := out.WriteSection(staging); err != nil {
			return err
		}
		out.Recycle(staging)
		for _, ai := range inputs {
			in.arrays[ai].Recycle(halos[ai])
		}
	}
	return nil
}

// evalShiftCode evaluates a postfix program for output local column c of
// a shifted FORALL, returning a pooled column the caller copies and
// releases. Every leaf pushes a pooled column (resolved through the halo
// section or the exchanged ghosts, both indexed by array-table index),
// operators fold right into left in place. Pooled columns are not
// cleared: in phantom mode the contents are never read (the staging copy
// is skipped), and otherwise every element is written.
func (in *interp) evalShiftCode(code []bytecode.ExprInstr, c, rows, localCols, h0 int,
	halos []*oocarray.ICLA, ghosts [][2][]float64) ([]float64, error) {
	stack := in.estack[:0]
	phantom := in.phantom
	fail := func(err error) ([]float64, error) {
		for _, t := range stack {
			bufpool.PutF64(t)
		}
		return nil, err
	}
	for i := range code {
		ins := &code[i]
		switch ins.Op {
		case bytecode.EPushConst:
			col := bufpool.GetF64(rows)
			if !phantom {
				for j := range col {
					col[j] = ins.Val
				}
			}
			stack = append(stack, col)
		case bytecode.EPushShift:
			col := bufpool.GetF64(rows)
			stack = append(stack, col)
			if phantom {
				continue
			}
			src := c + int(ins.B)
			switch {
			case src < 0: // left ghost; src in [-L, -1]
				g := ghosts[ins.A][0]
				off := (len(g)/rows + src) * rows
				if off < 0 || off+rows > len(g) {
					return fail(fmt.Errorf("exec: shift column %d of %q outside the left ghost", src, in.code.Arrays[ins.A].Name))
				}
				copy(col, g[off:off+rows])
			case src >= localCols: // right ghost
				g := ghosts[ins.A][1]
				off := (src - localCols) * rows
				if off < 0 || off+rows > len(g) {
					return fail(fmt.Errorf("exec: shift column %d of %q outside the right ghost", src, in.code.Arrays[ins.A].Name))
				}
				copy(col, g[off:off+rows])
			default: // local, through the halo section
				copy(col, halos[ins.A].Col(src-h0))
			}
		default: // EAdd..EDiv
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l := stack[len(stack)-1]
			if !phantom {
				foldExpr(ins.Op, l, r)
			}
			bufpool.PutF64(r)
		}
	}
	col := stack[0]
	in.estack = stack[:0]
	return col, nil
}

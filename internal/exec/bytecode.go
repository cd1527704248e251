package exec

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/trace"
)

// frame is one live loop of the dispatch loop's loop stack.
type frame struct {
	varSlot  int32
	loopPC   int32
	ckptNode int32
	count    int
	v        int
}

// loopDepth returns the deepest LOOP/LOOP_CKPT nesting of the stream.
func loopDepth(code []bytecode.Instr) int {
	depth, peak := 0, 0
	for i := range code {
		switch code[i].Op {
		case bytecode.OpLoop, bytecode.OpLoopCkpt:
			depth++
			if depth > peak {
				peak = depth
			}
		case bytecode.OpEndLoop:
			depth--
		}
	}
	return peak
}

// run is the fetch-decode loop, executing the stream from the resume
// cursor (startNode, startIter); (0,0) is a fresh run. Control opcodes
// are handled inline; plan opcodes dispatch to their handlers. Every
// dispatched instruction is an op boundary for cancellation; the check
// (interp.cancelled) is a non-blocking receive on the run's done channel
// and shares no state between ranks.
func (in *interp) run(startNode, startIter int) error {
	bc := in.code
	code := bc.Code
	pc := int32(0)
	resumeLoopPC := int32(-1)
	pendingFirst := 0
	if startNode != 0 || startIter != 0 {
		if startNode < 0 || startNode >= len(bc.NodePC) {
			return fmt.Errorf("exec: checkpoint cursor node %d outside the program", startNode)
		}
		pc = bc.NodePC[startNode]
		if startIter > 0 {
			// The iteration cursor applies to the loop instruction right
			// after the resumed node's NODE_ENTER (and only a LOOP_CKPT
			// may carry one — only time loops and SumStore loops record
			// iteration cursors). A cursor pointing into any other shape
			// is foreign.
			resumeLoopPC = pc + 1
			pendingFirst = startIter
		}
	}
	var nodeStart float64
	for int(pc) < len(code) {
		if err := in.cancelled(); err != nil {
			return err
		}
		ins := &code[pc]
		switch ins.Op {
		case bytecode.OpCkptInit:
			if in.ckptSpec != nil && !in.statsRestored {
				if err := in.checkpoint(0, 0); err != nil {
					return err
				}
			}
			pc++

		case bytecode.OpNodeEnter:
			nodeStart = in.proc.Clock().Seconds()
			pc++

		case bytecode.OpNodeExit:
			if tr := in.proc.Tracer(); tr != nil {
				if end := in.proc.Clock().Seconds(); end > nodeStart {
					tr.Emit(trace.Span{Kind: trace.KindNode, Label: bc.Labels[ins.B],
						Start: nodeStart, Dur: end - nodeStart, N: int64(ins.A)})
				}
			}
			pc++

		case bytecode.OpCkpt:
			if in.ckptSpec != nil {
				if err := in.checkpoint(int(ins.A), 0); err != nil {
					return err
				}
			}
			pc++

		case bytecode.OpLoop, bytecode.OpLoopCkpt:
			first := 0
			if pc == resumeLoopPC {
				if ins.Op == bytecode.OpLoop {
					return fmt.Errorf("exec: checkpoint cursor (%d,%d) points into a non-resumable loop", startNode, startIter)
				}
				first = pendingFirst
				resumeLoopPC, pendingFirst = -1, 0
			}
			count, err := in.tripCount(ins)
			if err != nil {
				return err
			}
			if first >= count {
				pc = ins.D
				continue
			}
			if ins.Op == bytecode.OpLoop && ins.D == pc+3 && code[pc+1].Op == bytecode.OpAxpy {
				// A loop whose whole body is one AXPY — the innermost loop
				// of both GAXPY translations — runs as one op: every trip
				// is known here, so nothing is re-dispatched per trip and
				// the kernel is a single op boundary (at most one slab of
				// multiply-adds between cancellation checks, the order of
				// the LOAD_SLAB that fetched it).
				if err := in.axpy(&code[pc+1], ins.A, first, count); err != nil {
					return err
				}
				pc = ins.D
				continue
			}
			in.vars[ins.A] = first
			ckptNode := int32(-1)
			if ins.Op == bytecode.OpLoopCkpt {
				ckptNode = ins.E
			}
			in.frames = append(in.frames, frame{varSlot: ins.A, loopPC: pc, ckptNode: ckptNode, count: count, v: first})
			pc++

		case bytecode.OpEndLoop:
			f := &in.frames[len(in.frames)-1]
			f.v++
			if f.v < f.count {
				if f.ckptNode >= 0 && in.ckptSpec != nil && f.v%in.ckptSpec.every() == 0 {
					if err := in.checkpoint(int(f.ckptNode), f.v); err != nil {
						return err
					}
				}
				in.vars[f.varSlot] = f.v
				pc = f.loopPC + 1
			} else {
				in.frames = in.frames[:len(in.frames)-1]
				pc++
			}

		default:
			if err := in.exec(ins); err != nil {
				return err
			}
			pc++
		}
	}
	return nil
}

func (in *interp) tripCount(ins *bytecode.Instr) (int, error) {
	switch ins.B {
	case bytecode.CountSlabs:
		return in.slabs[ins.C].Count, nil
	case bytecode.CountCols:
		buf := in.bufs[ins.C]
		if buf == nil {
			return 0, fmt.Errorf("exec: cols of unread buffer %q", in.code.BufNames[ins.C])
		}
		return buf.Cols, nil
	default:
		return int(ins.C), nil
	}
}

// exec handles the plan opcodes (everything but control flow).
func (in *interp) exec(ins *bytecode.Instr) error {
	switch ins.Op {
	case bytecode.OpLoadSlab:
		return in.loadSlab(ins)
	case bytecode.OpNewStaging:
		return in.newStaging(ins)
	case bytecode.OpAutoStage:
		in.autoOn[ins.A] = true
		in.autoIdx[ins.A] = -1
		return nil
	case bytecode.OpFlushStage:
		return in.flushStage(ins.A)
	case bytecode.OpStoreSlab:
		return in.storeSlab(ins)
	case bytecode.OpZeroVec:
		return in.zeroVec(ins)
	case bytecode.OpAxpy:
		return in.axpy(ins, -1, 0, 1)
	case bytecode.OpSumStore:
		return in.sumStore(ins)
	case bytecode.OpResetCounter:
		in.counter = 0
		return nil
	case bytecode.OpNewSlab:
		return in.newSlab(ins)
	case bytecode.OpEwise:
		return in.ewise(ins)
	case bytecode.OpExchange:
		return in.exchange(ins)
	case bytecode.OpAllToAll:
		return in.allToAll(ins)
	default:
		return fmt.Errorf("exec: unexpected opcode %s", ins.Op)
	}
}

func (in *interp) loadSlab(ins *bytecode.Instr) error {
	arr := in.arrays[ins.A]
	idx := in.vars[ins.B]
	var icla *oocarray.ICLA
	var err error
	switch ins.D {
	case 0:
		icla, err = arr.ReadSlab(in.slabs[ins.A], idx)
	case 1:
		icla, err = in.streamRead(ins, arr, idx)
	default: // halo-widened around the ghosts an EXCHANGE left in slot E
		var ghosts []float64
		if g := in.bufs[ins.E]; g != nil {
			ghosts = g.Data
		}
		icla, err = arr.ReadHalo(in.slabs[ins.A], idx, int(ins.F), int(ins.G), ghosts)
	}
	if err != nil {
		return err
	}
	in.bind(arr, ins.C, icla)
	return nil
}

// bind puts a buffer of arr into slot, recycling the one it replaces;
// from then on teardown (releaseBufs) owns it, however the run ends, and
// gives it back to arr.
func (in *interp) bind(arr *oocarray.Array, slot int32, s *oocarray.ICLA) {
	old := in.bufs[slot]
	in.bufs[slot], in.bufArrays[slot] = s, arr
	in.recycle(arr, old)
}

// exchangeTag tags the boundary-column exchange: the array at position i
// of a statement's exchange uses exchangeTag+2i rightward and the next
// tag leftward.
const exchangeTag = 101

// exchange trades boundary columns of one array with the neighbors
// (EXCHANGE): this block's last C columns go right and its first D left,
// and theirs come back into ghost buffer B, the C below this block first.
// Sections leave as owned messages and B is bound before the receives, so
// no buffer escapes teardown on a failed run.
func (in *interp) exchange(ins *bytecode.Instr) error {
	arr := in.arrays[ins.A]
	rows, cols := arr.LocalRows(), arr.LocalCols()
	left, right := int(ins.C), int(ins.D)
	tag := exchangeTag + 2*int(ins.E)
	rank, last := in.proc.Rank(), in.proc.Size()-1
	if left > 0 && rank < last {
		sec, err := arr.ReadSection(0, cols-left, rows, left)
		if err != nil {
			return err
		}
		in.proc.SendOwned(rank+1, tag, sec.Data)
	}
	if right > 0 && rank > 0 {
		sec, err := arr.ReadSection(0, 0, rows, right)
		if err != nil {
			return err
		}
		in.proc.SendOwned(rank-1, tag+1, sec.Data)
	}
	g := arr.NewSection(0, 0, rows, left+right)
	in.bind(arr, ins.B, g)
	if left > 0 && rank > 0 {
		data := in.proc.Recv(rank-1, tag)
		copy(g.Data, data)
		mp.ReleaseBuf(data)
	}
	if right > 0 && rank < last {
		data := in.proc.Recv(rank+1, tag+1)
		copy(g.Data[rows*left:], data)
		mp.ReleaseBuf(data)
	}
	return nil
}

// streamRead serves a stream-marked load through its prefetch reader,
// falling back to a direct read when the sequential-scan hypothesis does
// not hold at runtime.
func (in *interp) streamRead(ins *bytecode.Instr, arr *oocarray.Array, idx int) (*oocarray.ICLA, error) {
	ri := ins.E
	r := in.readers[ri]
	if idx == 0 {
		r = &in.readerStore[ri]
		r.Attach(arr, in.slabs[ins.A])
		in.readers[ri] = r
		in.readerNext[ri] = 0
	}
	if r == nil || in.readerNext[ri] != idx {
		return arr.ReadSlab(in.slabs[ins.A], idx)
	}
	icla, ok, err := r.Next()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("exec: stream reader for %q exhausted at slab %d", in.code.Arrays[ins.A].Name, idx)
	}
	in.readerNext[ri] = idx + 1
	return icla, nil
}

func (in *interp) newStaging(ins *bytecode.Instr) error {
	arr := in.arrays[ins.A]
	like := in.bufs[ins.B]
	if like == nil {
		return fmt.Errorf("exec: NewStaging rows-like buffer %q not read yet", in.code.BufNames[ins.B])
	}
	s := arr.NewSection(like.RowOff, 0, like.Rows, arr.LocalCols())
	oldStage := in.staging[ins.A]
	oldBuf := in.bufs[ins.C]
	in.staging[ins.A] = s
	in.bufs[ins.C], in.bufArrays[ins.C] = s, arr
	in.recycle(arr, oldStage)
	in.recycle(arr, oldBuf)
	return nil
}

func (in *interp) flushStage(arrIdx int32) error {
	s := in.staging[arrIdx]
	if s == nil {
		return nil
	}
	arr := in.arrays[arrIdx]
	if w := in.writers[arrIdx]; w != nil {
		if err := w.Write(s); err != nil {
			return err
		}
	} else if err := arr.WriteSection(s); err != nil {
		return err
	}
	in.staging[arrIdx] = nil
	in.recycle(arr, s)
	return nil
}

func (in *interp) storeSlab(ins *bytecode.Instr) error {
	buf := in.bufs[ins.B]
	if buf == nil {
		return fmt.Errorf("exec: WriteBuf of unknown buffer %q", in.code.BufNames[ins.B])
	}
	if w := in.writers[ins.A]; w != nil {
		return w.Write(buf)
	}
	return in.arrays[ins.A].WriteSection(buf)
}

func (in *interp) zeroVec(ins *bytecode.Instr) error {
	var rows int
	if ins.B >= 0 {
		buf := in.bufs[ins.B]
		if buf == nil {
			return fmt.Errorf("exec: ZeroVec rows-like buffer %q not read yet", in.code.BufNames[ins.B])
		}
		rows = buf.Rows
	} else {
		rows = in.arrays[ins.C].LocalRows()
	}
	v := in.vecs[ins.A]
	if len(v) != rows {
		bufpool.PutF64(v)
		v = bufpool.GetF64(rows)
		in.vecs[ins.A] = v
	}
	if !in.phantom {
		clear(v) // arena contents are arbitrary; a phantom run never reads them
	}
	return nil
}

// axpy executes AXPY for the trips [first, count) of loop variable slot
// loopSlot — the whole of a loop whose body is this one instruction (see
// run) — or, with loopSlot negative, the bare instruction's single trip.
// The operand and shape checks happen once. So do the index expressions:
// they are affine in every variable, so the kernel is handed their value
// at the first trip and what one trip adds to it (the difference to the
// second trip's value), whichever operands name the loop variable.
func (in *interp) axpy(ins *bytecode.Instr, loopSlot int32, first, count int) error {
	vec := in.vecs[ins.A]
	if vec == nil {
		return fmt.Errorf("exec: Axpy into unallocated vector %q", in.code.VecNames[ins.A])
	}
	a := in.bufs[ins.B]
	if a == nil {
		return fmt.Errorf("exec: Axpy reads unread buffer %q", in.code.BufNames[ins.B])
	}
	bb := in.bufs[ins.D]
	if bb == nil {
		return fmt.Errorf("exec: Axpy reads unread buffer %q", in.code.BufNames[ins.D])
	}
	if a.Rows != len(vec) {
		return fmt.Errorf("exec: Axpy shape mismatch: vector %d vs slab rows %d", len(vec), a.Rows)
	}
	vars := in.vars
	// at evaluates the operands under the current variables: where a's
	// column and b's element start in their slabs' storage.
	at := func() (aOff, bOff int) {
		row := 0
		if ins.E >= 0 {
			row = vars[ins.E]
			if ins.F >= 0 {
				row *= in.slabs[ins.F].Width
			}
		}
		if ins.G >= 0 {
			row += vars[ins.G]
		}
		return vars[ins.C] * a.Rows, vars[ins.H]*bb.Rows + row
	}
	if loopSlot >= 0 {
		vars[loopSlot] = first
	}
	aOff, bOff := at()
	aStep, bStep := 0, 0
	if loopSlot >= 0 {
		if count-first > 1 {
			vars[loopSlot] = first + 1
			aNext, bNext := at()
			aStep, bStep = aNext-aOff, bNext-bOff
		}
		vars[loopSlot] = count - 1 // where END_LOOP leaves it
	}
	oocarray.AxpyLoop(in.proc, vec, count-first, in.phantom, a.Data[aOff:], aStep, bb.Data[bOff:], bStep)
	return nil
}

func (in *interp) sumStore(ins *bytecode.Instr) error {
	vec := in.vecs[ins.A]
	if vec == nil {
		return fmt.Errorf("exec: SumStore of unallocated vector %q", in.code.VecNames[ins.A])
	}
	arr := in.arrays[ins.B]
	gj := in.counter
	in.counter++
	owner := arr.Dist().Dims[1].Owner(gj)
	mine := owner == in.proc.Rank()

	// The owner positions its (auto) staging slab before the reduction.
	if mine && in.autoOn[ins.B] {
		_, local := arr.Dist().Dims[1].ToLocal(gj)
		slb := in.slabs[ins.B]
		idx := local / slb.Width
		if idx != in.autoIdx[ins.B] {
			if err := in.flushStage(ins.B); err != nil {
				return err
			}
			s, err := arr.NewSlab(slb, idx)
			if err != nil {
				return err
			}
			in.staging[ins.B] = s
			in.autoIdx[ins.B] = idx
		}
	}

	// A phantom run reduces the column's length: nobody reads the sum.
	var sum []float64
	if in.phantom {
		in.proc.ReduceElided(owner, reduceTag, len(vec))
	} else {
		sum = in.proc.Reduce(owner, reduceTag, vec)
	}
	if !mine {
		return nil
	}
	name := in.code.Arrays[ins.B].Name
	s := in.staging[ins.B]
	if s == nil {
		return fmt.Errorf("exec: SumStore into %q with no staging buffer", name)
	}
	_, local := arr.Dist().Dims[1].ToLocal(gj)
	lj := local - s.ColOff
	if lj < 0 || lj >= s.Cols {
		return fmt.Errorf("exec: SumStore column %d outside staging [%d,+%d)", gj, s.ColOff, s.Cols)
	}
	if len(vec) != s.Rows {
		return fmt.Errorf("exec: SumStore length %d vs staging rows %d", len(vec), s.Rows)
	}
	if !in.phantom {
		copy(s.Col(lj), sum)
		mp.ReleaseBuf(sum)
	}
	return nil
}

func (in *interp) newSlab(ins *bytecode.Instr) error {
	arr := in.arrays[ins.A]
	icla, err := arr.NewSlab(in.slabs[ins.A], in.vars[ins.B])
	if err != nil {
		return err
	}
	in.bind(arr, ins.C, icla)
	return nil
}

// ewise evaluates an elementwise statement into its output buffer
// (EWISE): the whole buffer in one charge, or, bounded, the columns whose
// global index lies in [E, F] less G rows at the top and H at the bottom,
// one computation per column.
func (in *interp) ewise(ins *bytecode.Instr) error {
	out := in.bufs[ins.A]
	if out == nil {
		return fmt.Errorf("exec: Ewise into unknown buffer %q", in.code.BufNames[ins.A])
	}
	code := in.code.Exprs[ins.B]
	if ins.D < 0 {
		if !in.phantom {
			if err := in.evalEwiseCode(code, out.Data, -1, 0); err != nil {
				return err
			}
		}
		in.proc.Compute(int64(ins.C) * int64(len(out.Data)))
		return nil
	}
	colMap := in.arrays[ins.D].Dist().Dims[1]
	rank, evaluated := in.proc.Rank(), 0
	top, end := int(ins.G), out.Rows-int(ins.H)
	if top > end {
		return fmt.Errorf("exec: Ewise leaves out %d+%d rows of buffer %q, which holds %d", ins.G, ins.H, in.code.BufNames[ins.A], out.Rows)
	}
	for c := 0; c < out.Cols; c++ {
		if k := colMap.ToGlobal(rank, out.ColOff+c); k < int(ins.E) || k > int(ins.F) {
			continue
		}
		if !in.phantom {
			if err := in.evalEwiseCode(code, out.Col(c)[top:end], out.ColOff+c, top); err != nil {
				return err
			}
		}
		evaluated++
	}
	in.proc.ComputeN(int64(ins.C)*int64(end-top), evaluated)
	return nil
}

// evalEwiseCode evaluates a postfix program elementwise into dst: with col
// negative a whole output buffer, every leaf reading its buffer's whole
// data, else rows row.. of the output's local column col, each leaf
// reading column col plus its offset of its buffer from row plus its row
// offset on. The first value pushed lands in dst
// itself (the left spine of the source expression works into dst); every
// later push uses a pooled buffer, and operators fold the right operand
// into the left in place, so the float operations happen in source order
// (left subtree, right subtree, operator) and the result is dst with no
// final copy.
func (in *interp) evalEwiseCode(code []bytecode.ExprInstr, dst []float64, col, row int) error {
	stack := in.estack[:0]
	fail := func(err error) error {
		// dst sits at the bottom of the stack; only pooled buffers above
		// it go back.
		for i := 1; i < len(stack); i++ {
			bufpool.PutF64(stack[i])
		}
		return err
	}
	push := func() []float64 {
		t := dst
		if len(stack) > 0 {
			t = bufpool.GetF64(len(dst))
		}
		stack = append(stack, t)
		return t
	}
	for i := range code {
		ins := &code[i]
		switch ins.Op {
		case bytecode.EPushConst:
			t := push()
			for j := range t {
				t[j] = ins.Val
			}
		case bytecode.EPushBuf:
			src := in.bufs[ins.A]
			if src == nil {
				return fail(fmt.Errorf("exec: Ewise reads unread buffer %q", in.code.BufNames[ins.A]))
			}
			data := src.Data
			if col >= 0 {
				j := col + int(ins.B) - src.ColOff
				if j < 0 || j >= src.Cols {
					return fail(fmt.Errorf("exec: Ewise reads column %d of buffer %q, which holds columns %d..%d",
						col+int(ins.B), in.code.BufNames[ins.A], src.ColOff, src.ColOff+src.Cols-1))
				}
				r := row + int(ins.C)
				if r < 0 || r+len(dst) > src.Rows {
					return fail(fmt.Errorf("exec: Ewise reads rows %d..%d of buffer %q, which holds %d",
						r, r+len(dst)-1, in.code.BufNames[ins.A], src.Rows))
				}
				data = src.Col(j)[r : r+len(dst)]
			}
			if len(data) != len(dst) {
				return fail(fmt.Errorf("exec: Ewise buffer %q has %d elements, output has %d",
					in.code.BufNames[ins.A], len(data), len(dst)))
			}
			copy(push(), data)
		default: // EAdd..EDiv; Validate pinned the opcode set and stack depth
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l := stack[len(stack)-1]
			switch ins.Op {
			case bytecode.EAdd:
				for j := range l {
					l[j] += r[j]
				}
			case bytecode.ESub:
				for j := range l {
					l[j] -= r[j]
				}
			case bytecode.EMul:
				for j := range l {
					l[j] *= r[j]
				}
			case bytecode.EDiv:
				for j := range l {
					l[j] /= r[j]
				}
			}
			bufpool.PutF64(r)
		}
	}
	in.estack = stack[:0]
	return nil
}

func (in *interp) allToAll(ins *bytecode.Instr) error {
	src := in.arrays[ins.A]
	dst := in.arrays[ins.B]
	var m collio.IndexMap // the identity
	if ins.C == 1 {
		m = collio.Transpose()
	}
	return oocarray.RedistributeBy(in.proc, src, dst, int(ins.E), redistTag, m, collio.Method(ins.D))
}

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

// bcExec executes a compiled opcode stream for one rank. Where the tree
// walk resolves every name through a map on every node visit, bcExec
// indexes flat slot tables the compiler laid out: vars, bufs and vecs by
// slot, arrays (with their slabbings, writers, staging and auto-staging
// state) by table index, prefetch readers by reader slot. Semantics are
// the tree walk's, operation for operation: every error condition,
// checkpoint cursor, message tag and float operation happens in the same
// order with the same values, so a bytecode run's results, statistics and
// trace reconcile bitwise with the tree-walk run's.
type bcExec struct {
	in *interp
	bc *bytecode.Program

	// Per array-table index, resolved once at construction.
	arrays  []*oocarray.Array
	slabs   []oocarray.Slabbing
	writers []*oocarray.SlabWriter
	staging []*oocarray.ICLA
	autoOn  []bool
	autoIdx []int

	// Slot tables.
	vars []int
	bufs []*oocarray.ICLA
	vecs [][]float64

	// Prefetch readers, one slot per stream-marked LOAD_SLAB.
	readers    []*oocarray.SlabReader
	readerNext []int

	// frames is the live loop stack.
	frames []bcFrame

	// shiftInputs caches, per expression program, the distinct arrays its
	// shifted reads reference in first-use order: the ghost-exchange
	// order, which fixes the message tags and must match the tree walk's.
	shiftInputs [][]string

	// estack is the expression evaluation scratch stack, sized once to
	// the deepest expression in the program.
	estack [][]float64
}

type bcFrame struct {
	varSlot  int32
	loopPC   int32
	ckptNode int32
	count    int
	v        int
}

// runBytecode executes the compiled stream from the resume cursor
// (startNode, startIter); (0,0) is a fresh run. It is the bytecode
// counterpart of runTop.
func (in *interp) runBytecode(bc *bytecode.Program, startNode, startIter int) error {
	bce, err := newBCExec(in, bc)
	if err != nil {
		return err
	}
	in.bce = bce
	return bce.run(startNode, startIter)
}

// newBCExec resolves the program's tables against the rank's initialized
// arrays and adopts any state a checkpoint restore left in the
// interpreter's maps (staging buffers, auto-staging cursors).
func newBCExec(in *interp, bc *bytecode.Program) (*bcExec, error) {
	na := len(bc.Arrays)
	b := &bcExec{
		in:          in,
		bc:          bc,
		arrays:      make([]*oocarray.Array, na),
		slabs:       make([]oocarray.Slabbing, na),
		writers:     make([]*oocarray.SlabWriter, na),
		staging:     make([]*oocarray.ICLA, na),
		autoOn:      make([]bool, na),
		autoIdx:     make([]int, na),
		vars:        make([]int, len(bc.VarNames)),
		bufs:        make([]*oocarray.ICLA, len(bc.BufNames)),
		vecs:        make([][]float64, len(bc.VecNames)),
		readers:     make([]*oocarray.SlabReader, bc.Readers),
		readerNext:  make([]int, bc.Readers),
		shiftInputs: make([][]string, len(bc.Exprs)),
		estack:      make([][]float64, 0, bc.MaxExprDepth()),
	}
	for i, spec := range bc.Arrays {
		arr, ok := in.arrays[spec.Name]
		if !ok {
			return nil, fmt.Errorf("exec: bytecode array %q missing from the run", spec.Name)
		}
		b.arrays[i] = arr
		b.slabs[i] = in.slabbings[spec.Name]
		b.writers[i] = in.writers[spec.Name]
		if s, ok := in.staging[spec.Name]; ok {
			b.staging[i] = s
		}
		b.autoOn[i] = in.auto[spec.Name]
		if idx, ok := in.autoIdx[spec.Name]; ok {
			b.autoIdx[i] = idx
		}
	}
	for i, code := range bc.Exprs {
		var names []string
		for _, ins := range code {
			if ins.Op != bytecode.EPushShift {
				continue
			}
			name := bc.Arrays[ins.A].Name
			dup := false
			for _, n := range names {
				if n == name {
					dup = true
					break
				}
			}
			if !dup {
				names = append(names, name)
			}
		}
		b.shiftInputs[i] = names
	}
	return b, nil
}

// run is the fetch-decode loop. Control opcodes are handled inline; plan
// opcodes dispatch to their handlers. Every instruction is an op
// boundary for cancellation, a superset of the tree walk's plan-node
// boundaries; the check (interp.cancelled) is a non-blocking receive on
// the run's done channel and shares no state between ranks.
func (b *bcExec) run(startNode, startIter int) error {
	in, bc := b.in, b.bc
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
			// may carry one — only SumStore loops record iteration
			// cursors). A cursor pointing into any other shape is foreign.
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
				if err := b.checkpoint(0, 0); err != nil {
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
				if err := b.checkpoint(int(ins.A), 0); err != nil {
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
			count, err := b.tripCount(ins)
			if err != nil {
				return err
			}
			if first >= count {
				pc = ins.D
				continue
			}
			b.vars[ins.A] = first
			ckptNode := int32(-1)
			if ins.Op == bytecode.OpLoopCkpt {
				ckptNode = ins.E
			}
			b.frames = append(b.frames, bcFrame{varSlot: ins.A, loopPC: pc, ckptNode: ckptNode, count: count, v: first})
			pc++

		case bytecode.OpEndLoop:
			f := &b.frames[len(b.frames)-1]
			f.v++
			if f.v < f.count {
				if f.ckptNode >= 0 && in.ckptSpec != nil && f.v%in.ckptSpec.every() == 0 {
					if err := b.checkpoint(int(f.ckptNode), f.v); err != nil {
						return err
					}
				}
				b.vars[f.varSlot] = f.v
				pc = f.loopPC + 1
			} else {
				b.frames = b.frames[:len(b.frames)-1]
				pc++
			}

		default:
			if err := b.exec(ins); err != nil {
				return err
			}
			pc++
		}
	}
	return nil
}

func (b *bcExec) tripCount(ins *bytecode.Instr) (int, error) {
	switch ins.B {
	case bytecode.CountSlabs:
		return b.slabs[ins.C].Count, nil
	case bytecode.CountCols:
		buf := b.bufs[ins.C]
		if buf == nil {
			return 0, fmt.Errorf("exec: cols of unread buffer %q", b.bc.BufNames[ins.C])
		}
		return buf.Cols, nil
	default:
		return int(ins.C), nil
	}
}

// exec handles the plan opcodes (everything but control flow).
func (b *bcExec) exec(ins *bytecode.Instr) error {
	switch ins.Op {
	case bytecode.OpLoadSlab:
		return b.loadSlab(ins)
	case bytecode.OpNewStaging:
		return b.newStaging(ins)
	case bytecode.OpAutoStage:
		b.autoOn[ins.A] = true
		b.autoIdx[ins.A] = -1
		return nil
	case bytecode.OpFlushStage:
		return b.flushStage(ins.A)
	case bytecode.OpStoreSlab:
		return b.storeSlab(ins)
	case bytecode.OpZeroVec:
		return b.zeroVec(ins)
	case bytecode.OpAxpy:
		return b.axpy(ins)
	case bytecode.OpSumStore:
		return b.sumStore(ins)
	case bytecode.OpResetCounter:
		b.in.counter = 0
		return nil
	case bytecode.OpNewSlab:
		return b.newSlab(ins)
	case bytecode.OpEwise:
		return b.ewise(ins)
	case bytecode.OpShiftEwise:
		return b.shiftEwise(ins)
	case bytecode.OpAllToAll:
		return b.allToAll(ins)
	default:
		return fmt.Errorf("exec: unexpected opcode %s", ins.Op)
	}
}

func (b *bcExec) loadSlab(ins *bytecode.Instr) error {
	arr := b.arrays[ins.A]
	idx := b.vars[ins.B]
	var icla *oocarray.ICLA
	var err error
	if ins.D == 0 {
		icla, err = arr.ReadSlab(b.slabs[ins.A], idx)
	} else {
		icla, err = b.streamRead(ins, arr, idx)
	}
	if err != nil {
		return err
	}
	old := b.bufs[ins.C]
	b.bufs[ins.C] = icla
	b.recycle(arr, old)
	return nil
}

// streamRead serves a stream-marked load through its prefetch reader,
// falling back to a direct read when the sequential-scan hypothesis does
// not hold at runtime (same policy as the tree walk's readSlab).
func (b *bcExec) streamRead(ins *bytecode.Instr, arr *oocarray.Array, idx int) (*oocarray.ICLA, error) {
	ri := ins.E
	r := b.readers[ri]
	if idx == 0 {
		if r == nil {
			r = arr.NewSlabReader(b.slabs[ins.A])
			b.readers[ri] = r
		} else {
			r.Reset()
		}
		b.readerNext[ri] = 0
	}
	if r == nil || b.readerNext[ri] != idx {
		return arr.ReadSlab(b.slabs[ins.A], idx)
	}
	icla, ok, err := r.Next()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("exec: stream reader for %q exhausted at slab %d", b.bc.Arrays[ins.A].Name, idx)
	}
	b.readerNext[ri] = idx + 1
	return icla, nil
}

func (b *bcExec) newStaging(ins *bytecode.Instr) error {
	arr := b.arrays[ins.A]
	like := b.bufs[ins.B]
	if like == nil {
		return fmt.Errorf("exec: NewStaging rows-like buffer %q not read yet", b.bc.BufNames[ins.B])
	}
	s := &oocarray.ICLA{
		RowOff: like.RowOff, ColOff: 0,
		Rows: like.Rows, Cols: arr.LocalCols(),
		Data: bufpool.GetF64(like.Rows * arr.LocalCols()),
	}
	clear(s.Data)
	oldStage := b.staging[ins.A]
	oldBuf := b.bufs[ins.C]
	b.staging[ins.A] = s
	b.bufs[ins.C] = s
	b.recycle(arr, oldStage)
	b.recycle(arr, oldBuf)
	return nil
}

func (b *bcExec) flushStage(arrIdx int32) error {
	s := b.staging[arrIdx]
	if s == nil {
		return nil
	}
	arr := b.arrays[arrIdx]
	if w := b.writers[arrIdx]; w != nil {
		if err := w.Write(s); err != nil {
			return err
		}
	} else if err := arr.WriteSection(s); err != nil {
		return err
	}
	b.staging[arrIdx] = nil
	b.recycle(arr, s)
	return nil
}

func (b *bcExec) storeSlab(ins *bytecode.Instr) error {
	buf := b.bufs[ins.B]
	if buf == nil {
		return fmt.Errorf("exec: WriteBuf of unknown buffer %q", b.bc.BufNames[ins.B])
	}
	if w := b.writers[ins.A]; w != nil {
		return w.Write(buf)
	}
	return b.arrays[ins.A].WriteSection(buf)
}

func (b *bcExec) zeroVec(ins *bytecode.Instr) error {
	var rows int
	if ins.B >= 0 {
		buf := b.bufs[ins.B]
		if buf == nil {
			return fmt.Errorf("exec: ZeroVec rows-like buffer %q not read yet", b.bc.BufNames[ins.B])
		}
		rows = buf.Rows
	} else {
		rows = b.arrays[ins.C].LocalRows()
	}
	v := b.vecs[ins.A]
	if len(v) != rows {
		b.vecs[ins.A] = make([]float64, rows)
	} else if !b.in.phantom {
		for i := range v {
			v[i] = 0
		}
	}
	return nil
}

func (b *bcExec) axpy(ins *bytecode.Instr) error {
	vec := b.vecs[ins.A]
	if vec == nil {
		return fmt.Errorf("exec: Axpy into unallocated vector %q", b.bc.VecNames[ins.A])
	}
	a := b.bufs[ins.B]
	if a == nil {
		return fmt.Errorf("exec: Axpy reads unread buffer %q", b.bc.BufNames[ins.B])
	}
	bb := b.bufs[ins.D]
	if bb == nil {
		return fmt.Errorf("exec: Axpy reads unread buffer %q", b.bc.BufNames[ins.D])
	}
	row := 0
	if ins.E >= 0 {
		scale := 1
		if ins.F >= 0 {
			scale = b.slabs[ins.F].Width
		}
		row = b.vars[ins.E] * scale
	}
	if ins.G >= 0 {
		row += b.vars[ins.G]
	}
	if a.Rows != len(vec) {
		return fmt.Errorf("exec: Axpy shape mismatch: vector %d vs slab rows %d", len(vec), a.Rows)
	}
	if !b.in.phantom {
		col := a.Col(b.vars[ins.C])
		bval := bb.At(row, b.vars[ins.H])
		for i, v := range col {
			vec[i] += bval * v
		}
	}
	b.in.proc.Compute(2 * int64(a.Rows))
	return nil
}

func (b *bcExec) sumStore(ins *bytecode.Instr) error {
	in := b.in
	vec := b.vecs[ins.A]
	if vec == nil {
		return fmt.Errorf("exec: SumStore of unallocated vector %q", b.bc.VecNames[ins.A])
	}
	arr := b.arrays[ins.B]
	gj := in.counter
	in.counter++
	owner := arr.Dist().Dims[1].Owner(gj)
	mine := owner == in.proc.Rank()

	// The owner positions its (auto) staging slab before the reduction.
	if mine && b.autoOn[ins.B] {
		_, local := arr.Dist().Dims[1].ToLocal(gj)
		slb := b.slabs[ins.B]
		idx := local / slb.Width
		if idx != b.autoIdx[ins.B] {
			if err := b.flushStage(ins.B); err != nil {
				return err
			}
			s, err := arr.NewSlab(slb, idx)
			if err != nil {
				return err
			}
			b.staging[ins.B] = s
			b.autoIdx[ins.B] = idx
		}
	}

	sum := in.proc.Reduce(owner, reduceTag, vec)
	if !mine {
		return nil
	}
	name := b.bc.Arrays[ins.B].Name
	s := b.staging[ins.B]
	if s == nil {
		return fmt.Errorf("exec: SumStore into %q with no staging buffer", name)
	}
	_, local := arr.Dist().Dims[1].ToLocal(gj)
	lj := local - s.ColOff
	if lj < 0 || lj >= s.Cols {
		return fmt.Errorf("exec: SumStore column %d outside staging [%d,+%d)", gj, s.ColOff, s.Cols)
	}
	if len(sum) != s.Rows {
		return fmt.Errorf("exec: SumStore length %d vs staging rows %d", len(sum), s.Rows)
	}
	copy(s.Col(lj), sum)
	mp.ReleaseBuf(sum)
	return nil
}

func (b *bcExec) newSlab(ins *bytecode.Instr) error {
	arr := b.arrays[ins.A]
	icla, err := arr.NewSlab(b.slabs[ins.A], b.vars[ins.B])
	if err != nil {
		return err
	}
	old := b.bufs[ins.C]
	b.bufs[ins.C] = icla
	b.recycle(arr, old)
	return nil
}

func (b *bcExec) ewise(ins *bytecode.Instr) error {
	out := b.bufs[ins.A]
	if out == nil {
		return fmt.Errorf("exec: Ewise into unknown buffer %q", b.bc.BufNames[ins.A])
	}
	if !b.in.phantom {
		if err := b.evalEwiseCode(b.bc.Exprs[ins.B], out.Data); err != nil {
			return err
		}
	}
	b.in.proc.Compute(int64(ins.C) * int64(len(out.Data)))
	return nil
}

// evalEwiseCode evaluates a postfix program elementwise into dst. The
// first value pushed lands in dst itself (the postfix image of the tree
// evaluation's left spine, which works into dst); every later push uses a
// pooled buffer, and operators fold the right operand into the left in
// place. The float operations therefore happen in exactly the order the
// recursive evaluation performs them, and the result is dst with no
// final copy.
func (b *bcExec) evalEwiseCode(code []bytecode.ExprInstr, dst []float64) error {
	stack := b.estack[:0]
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
			src := b.bufs[ins.A]
			if src == nil {
				return fail(fmt.Errorf("exec: Ewise reads unread buffer %q", b.bc.BufNames[ins.A]))
			}
			if len(src.Data) != len(dst) {
				return fail(fmt.Errorf("exec: Ewise buffer %q has %d elements, output has %d",
					b.bc.BufNames[ins.A], len(src.Data), len(dst)))
			}
			copy(push(), src.Data)
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
	b.estack = stack[:0]
	return nil
}

func (b *bcExec) shiftEwise(ins *bytecode.Instr) error {
	code := b.bc.Exprs[ins.B]
	return b.in.runShiftCore(b.bc.Arrays[ins.A].Name, b.shiftInputs[ins.B],
		int(ins.C), int(ins.D), int(ins.E), int(ins.F), int(ins.G),
		func(c, rows, localCols, h0 int, halos map[string]*oocarray.ICLA, ghosts map[string][2][]float64) ([]float64, error) {
			return b.evalShiftCode(code, c, rows, localCols, h0, halos, ghosts)
		})
}

// evalShiftCode evaluates a postfix program for one output column of a
// shifted FORALL. Every leaf pushes a pooled column (resolved through the
// halo section or the exchanged ghosts), operators fold right into left
// in place — the same buffer traffic and float order as the recursive
// evalShiftColumn, including phantom mode's allocate-but-don't-fill
// behavior.
func (b *bcExec) evalShiftCode(code []bytecode.ExprInstr, c, rows, localCols, h0 int,
	halos map[string]*oocarray.ICLA, ghosts map[string][2][]float64) ([]float64, error) {
	stack := b.estack[:0]
	phantom := b.in.phantom
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
			name := b.bc.Arrays[ins.A].Name
			src := c + int(ins.B)
			switch {
			case src < 0: // left ghost
				g := ghosts[name][0]
				off := (len(g)/rows + src) * rows
				if off < 0 || off+rows > len(g) {
					return fail(fmt.Errorf("exec: shift column %d of %q outside the left ghost", src, name))
				}
				copy(col, g[off:off+rows])
			case src >= localCols: // right ghost
				g := ghosts[name][1]
				off := (src - localCols) * rows
				if off < 0 || off+rows > len(g) {
					return fail(fmt.Errorf("exec: shift column %d of %q outside the right ghost", src, name))
				}
				copy(col, g[off:off+rows])
			default: // local, through the halo section
				copy(col, halos[name].Col(src-h0))
			}
		default: // EAdd..EDiv
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l := stack[len(stack)-1]
			if !phantom {
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
			}
			bufpool.PutF64(r)
		}
	}
	col := stack[0]
	b.estack = stack[:0]
	return col, nil
}

func (b *bcExec) allToAll(ins *bytecode.Instr) error {
	src := b.arrays[ins.A]
	dst := b.arrays[ins.B]
	var transform func(gi, gj int) (int, int)
	if ins.C == 1 {
		transform = func(gi, gj int) (int, int) { return gj, gi }
	}
	return oocarray.RedistributeVia(b.in.proc, src, dst, int(ins.E), redistTag, transform, collio.Method(ins.D))
}

// checkpoint syncs the interpreter's name-keyed maps from the slot tables
// and commits through the shared doCheckpoint, so a bytecode run's
// manifests are byte-identical to the tree walk's (same keys, same JSON).
// The maps are rebuilt fresh each time — the slot tables are the truth
// between checkpoints.
func (b *bcExec) checkpoint(nodeIdx, iter int) error {
	in := b.in
	in.staging = make(map[string]*oocarray.ICLA, len(b.staging))
	in.auto = make(map[string]bool, len(b.autoOn))
	in.autoIdx = make(map[string]int, len(b.autoOn))
	for i, spec := range b.bc.Arrays {
		if s := b.staging[i]; s != nil {
			in.staging[spec.Name] = s
		}
		if b.autoOn[i] {
			in.auto[spec.Name] = true
			in.autoIdx[spec.Name] = b.autoIdx[i]
		}
	}
	return in.doCheckpoint(nodeIdx, iter)
}

// recycle returns a slab buffer to the arena once no slot references it
// (the slice-table mirror of interp.recycle).
func (b *bcExec) recycle(arr *oocarray.Array, s *oocarray.ICLA) {
	if s == nil {
		return
	}
	for _, x := range b.bufs {
		if x == s {
			return
		}
	}
	for _, x := range b.staging {
		if x == s {
			return
		}
	}
	arr.Recycle(s)
}

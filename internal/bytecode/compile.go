package bytecode

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
)

// Compile lowers a plan program to its flat opcode stream. Every name in
// the plan — loop variables, slab buffers, accumulation vectors, arrays —
// is resolved here, once, to a slot or table index, and every structural
// property of a node the engine needs (checkpoint eligibility,
// redistribution method, per-element operation counts, span labels) is
// precomputed into instruction operands.
//
// Compile also performs statically the checks that would otherwise
// surface on a loop's first trip: a reference to an undefined buffer, a
// dead loop variable or an unknown array is a compile error, returned
// before exec creates a file or starts a rank.
func Compile(p *plan.Program) (*Program, error) {
	code := *p // the stream, and so its fingerprint, omits the runtime switches
	code.Runtime = oocarray.Options{}
	instrs, exprs := tableSizes(p.Body)
	c := &compiler{
		bc: &Program{
			Name:        p.Name,
			N:           p.N,
			Procs:       p.Procs,
			Strategy:    p.Strategy,
			Fingerprint: plan.Fingerprint(&code, nil),
			Arrays:      append([]plan.ArraySpec(nil), p.Arrays...),
			// The tables are made at their final size, and nil when
			// empty, as Decode makes them.
			Labels: table[string](len(p.Body))[:0],
			Exprs:  table[[]ExprInstr](exprs)[:0],
			// CKPT_INIT; each node's NODE_ENTER, body and NODE_EXIT;
			// a CKPT before each node but the first.
			Code:   make([]Instr, 0, 1+instrs+2*len(p.Body)+max(len(p.Body)-1, 0)),
			NodePC: table[int32](len(p.Body))[:0],
		},
		nodes: len(p.Body),
	}
	for i, a := range p.Arrays {
		for _, b := range p.Arrays[:i] {
			if a.Name == b.Name {
				return nil, fmt.Errorf("bytecode: duplicate array %q", a.Name)
			}
		}
	}
	c.emit(Instr{Op: OpCkptInit})
	for i, n := range p.Body {
		c.node = int32(i)
		label := int32(len(c.bc.Labels))
		c.bc.Labels = append(c.bc.Labels, plan.NodeLabel(n))
		c.bc.NodePC = append(c.bc.NodePC, int32(len(c.bc.Code)))
		c.emit(Instr{Op: OpNodeEnter, A: int32(i), B: label})
		loop, isLoop := n.(*plan.Loop)
		var err error
		if isLoop && plan.Uniform(loop) {
			// A top-level loop every rank runs the same trips of (a time
			// loop, or a SumStore loop) checkpoints between iterations;
			// its OpLoopCkpt carries the node index the checkpoint cursor
			// needs. With checkpointing off the executor runs it exactly
			// like OpLoop.
			err = c.compileLoop(loop, int32(i))
		} else {
			err = c.compileNode(n)
		}
		if err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpNodeExit, A: int32(i), B: label})
		if i+1 < len(p.Body) {
			c.emit(Instr{Op: OpCkpt, A: int32(i + 1)})
		}
	}
	if c.liveIn != nil {
		c.dropLiveCkpts()
	}
	if err := c.bc.Validate(); err != nil {
		return nil, fmt.Errorf("bytecode: compiled stream fails validation: %w", err)
	}
	return c.bc, nil
}

// dropLiveCkpts removes the checkpoints of every node a buffer slot is
// live into: the CKPT before it, and the iteration checkpoints of a
// LOOP_CKPT (demoted to LOOP). A resume starts with empty slots, so it
// must not land inside a slot's lifetime (an exchange's ghosts, read by
// the slab loop after it). Loop targets and the resume jump table follow
// the instructions that move up.
func (c *compiler) dropLiveCkpts() {
	code := c.bc.Code
	at := make([]int32, len(code)+1) // old pc -> new pc
	n := int32(0)
	for pc, ins := range code {
		at[pc] = n
		if ins.Op == OpCkpt && c.liveIn[ins.A] {
			continue
		}
		code[n] = ins
		n++
	}
	at[len(code)] = n
	c.bc.Code = code[:n]
	for i := range c.bc.Code {
		switch ins := &c.bc.Code[i]; ins.Op {
		case OpLoop, OpLoopCkpt:
			ins.D = at[ins.D]
			if ins.Op == OpLoopCkpt && c.liveIn[ins.E] {
				ins.Op, ins.E = OpLoop, 0
			}
		case OpEndLoop:
			ins.A = at[ins.A]
		}
	}
	for i, pc := range c.bc.NodePC {
		c.bc.NodePC[i] = at[pc]
	}
}

type compiler struct {
	bc *Program
	// live[s] reports whether the loop variable of slot s is in scope at
	// the current compile point (the static mirror of the interpreter's
	// set/delete on its vars map).
	live []bool
	// bufNode[s] is the top-level node that last bound buffer slot s.
	bufNode []int32
	// node is the top-level node being lowered, of nodes. liveIn[i]
	// records that some buffer slot is live across the boundary before
	// node i: bound before it, read at or after it (nil while none is).
	node   int32
	nodes  int
	liveIn []bool
}

// tableSizes counts the instructions and expression programs lowering
// body emits, so Compile makes Code and Exprs once. Each node lowers to
// one instruction except a loop (LOOP, its body, END_LOOP) and an
// exchange (one per array).
func tableSizes(body []plan.Node) (instrs, exprs int) {
	for _, n := range body {
		switch n := n.(type) {
		case *plan.Loop:
			i, e := tableSizes(n.Body)
			instrs, exprs = instrs+2+i, exprs+e
		case *plan.Exchange:
			instrs += len(n.Arrays)
		case *plan.Ewise:
			instrs, exprs = instrs+1, exprs+1
		default:
			instrs++
		}
	}
	return instrs, exprs
}

// slotOf is the index of name in a slot's name table, or -1.
func slotOf(names []string, name string) int32 {
	for i, n := range names {
		if n == name {
			return int32(i)
		}
	}
	return -1
}

func (c *compiler) emit(ins Instr) int32 {
	c.bc.Code = append(c.bc.Code, ins)
	return int32(len(c.bc.Code) - 1)
}

func (c *compiler) arrayIdx(name, what string) (int32, error) {
	for i, a := range c.bc.Arrays {
		if a.Name == name {
			return int32(i), nil
		}
	}
	return 0, fmt.Errorf("bytecode: %s references unknown array %q", what, name)
}

// varDef brings a loop variable into scope, assigning its slot on first
// use. Shadowing is rejected: the interpreter's flat variable map would
// silently clobber and then kill the outer binding.
func (c *compiler) varDef(name string) (int32, error) {
	s := slotOf(c.bc.VarNames, name)
	if s < 0 {
		s = int32(len(c.bc.VarNames))
		c.bc.VarNames = append(c.bc.VarNames, name)
		c.live = append(c.live, false)
	}
	if c.live[s] {
		return 0, fmt.Errorf("bytecode: loop variable %q shadows a live loop variable", name)
	}
	c.live[s] = true
	return s, nil
}

func (c *compiler) varRef(name, what string) (int32, error) {
	s := slotOf(c.bc.VarNames, name)
	if s < 0 || !c.live[s] {
		return 0, fmt.Errorf("bytecode: %s %q is not a live loop variable", what, name)
	}
	return s, nil
}

// bufDef assigns (or reuses) the slot a node binds a buffer name to.
func (c *compiler) bufDef(name string) int32 {
	s := slotOf(c.bc.BufNames, name)
	if s < 0 {
		s = int32(len(c.bc.BufNames))
		c.bc.BufNames = append(c.bc.BufNames, name)
		c.bufNode = append(c.bufNode, 0)
	}
	c.bufNode[s] = c.node
	return s
}

func (c *compiler) bufRef(name, what string) (int32, error) {
	s := slotOf(c.bc.BufNames, name)
	if s < 0 {
		return 0, fmt.Errorf("bytecode: %s references buffer %q before any definition", what, name)
	}
	for n := c.bufNode[s] + 1; n <= c.node; n++ {
		if c.liveIn == nil {
			c.liveIn = make([]bool, c.nodes)
		}
		c.liveIn[n] = true
	}
	return s, nil
}

func (c *compiler) vecDef(name string) int32 {
	s := slotOf(c.bc.VecNames, name)
	if s < 0 {
		s = int32(len(c.bc.VecNames))
		c.bc.VecNames = append(c.bc.VecNames, name)
	}
	return s
}

func (c *compiler) vecRef(name, what string) (int32, error) {
	s := slotOf(c.bc.VecNames, name)
	if s < 0 {
		return 0, fmt.Errorf("bytecode: %s references vector %q before any ZeroVec", what, name)
	}
	return s, nil
}

// compileLoop lowers a loop; ckptNode >= 0 marks a checkpoint-eligible
// top-level loop (plan.Uniform) and names its node index.
func (c *compiler) compileLoop(n *plan.Loop, ckptNode int32) error {
	kind, arg, err := c.count(n.Count)
	if err != nil {
		return err
	}
	slot, err := c.varDef(n.Var)
	if err != nil {
		return err
	}
	ins := Instr{Op: OpLoop, A: slot, B: kind, C: arg}
	if ckptNode >= 0 {
		ins.Op = OpLoopCkpt
		ins.E = ckptNode
	}
	loopPC := c.emit(ins)
	for _, b := range n.Body {
		if err := c.compileNode(b); err != nil {
			return err
		}
	}
	end := c.emit(Instr{Op: OpEndLoop, A: loopPC})
	c.bc.Code[loopPC].D = end + 1
	c.live[slot] = false
	return nil
}

func (c *compiler) count(e plan.CountExpr) (kind, arg int32, err error) {
	switch {
	case e.SlabsOf != "":
		arg, err = c.arrayIdx(e.SlabsOf, "loop count slabs()")
		return CountSlabs, arg, err
	case e.ColsOf != "":
		arg, err = c.bufRef(e.ColsOf, "loop count cols()")
		return CountCols, arg, err
	default:
		return CountLit, int32(e.Lit), nil
	}
}

func (c *compiler) compileNode(n plan.Node) error {
	switch n := n.(type) {
	case *plan.Loop:
		return c.compileLoop(n, -1)

	case *plan.ReadSlab:
		arr, err := c.arrayIdx(n.Array, "ReadSlab")
		if err != nil {
			return err
		}
		idx, err := c.varRef(n.Index, "ReadSlab index")
		if err != nil {
			return err
		}
		ins := Instr{Op: OpLoadSlab, A: arr, B: idx, E: -1}
		switch {
		case n.Ghosts != "":
			ins.D, ins.F, ins.G = 2, int32(n.Left), int32(n.Right)
			if ins.E, err = c.bufRef(n.Ghosts, "ReadSlab ghosts"); err != nil {
				return err
			}
		case n.Stream:
			ins.D, ins.E = 1, int32(c.bc.Readers)
			c.bc.Readers++
		}
		ins.C = c.bufDef(n.Buf)
		c.emit(ins)
		return nil

	case *plan.NewStaging:
		arr, err := c.arrayIdx(n.Array, "NewStaging")
		if err != nil {
			return err
		}
		like, err := c.bufRef(n.RowsLike, "NewStaging rows-like")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpNewStaging, A: arr, B: like, C: c.bufDef(n.Buf)})
		return nil

	case *plan.AutoStage:
		arr, err := c.arrayIdx(n.Array, "AutoStage")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpAutoStage, A: arr})
		return nil

	case *plan.FlushStage:
		arr, err := c.arrayIdx(n.Array, "FlushStage")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpFlushStage, A: arr})
		return nil

	case *plan.WriteBuf:
		arr, err := c.arrayIdx(n.Array, "WriteBuf")
		if err != nil {
			return err
		}
		buf, err := c.bufRef(n.Buf, "WriteBuf")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpStoreSlab, A: arr, B: buf})
		return nil

	case *plan.ZeroVec:
		ins := Instr{Op: OpZeroVec, A: c.vecDef(n.Vec), B: -1, C: -1}
		if n.RowsLike != "" {
			like, err := c.bufRef(n.RowsLike, "ZeroVec rows-like")
			if err != nil {
				return err
			}
			ins.B = like
		} else {
			arr, err := c.arrayIdx(n.RowsOfArray, "ZeroVec")
			if err != nil {
				return err
			}
			ins.C = arr
		}
		c.emit(ins)
		return nil

	case *plan.Axpy:
		vec, err := c.vecRef(n.Vec, "Axpy")
		if err != nil {
			return err
		}
		a, err := c.bufRef(n.A, "Axpy")
		if err != nil {
			return err
		}
		aCol, err := c.varRef(n.ACol, "Axpy column variable")
		if err != nil {
			return err
		}
		b, err := c.bufRef(n.B, "Axpy")
		if err != nil {
			return err
		}
		bCol, err := c.varRef(n.BCol, "Axpy column variable")
		if err != nil {
			return err
		}
		ins := Instr{Op: OpAxpy, A: vec, B: a, C: aCol, D: b, E: -1, F: -1, G: -1, H: bCol}
		if n.BRowBase != "" {
			if ins.E, err = c.varRef(n.BRowBase, "Axpy row variable"); err != nil {
				return err
			}
			if n.BRowScale != "" {
				if ins.F, err = c.arrayIdx(n.BRowScale, "Axpy slab width"); err != nil {
					return err
				}
			}
		}
		if n.BRowPlus != "" {
			if ins.G, err = c.varRef(n.BRowPlus, "Axpy row variable"); err != nil {
				return err
			}
		}
		c.emit(ins)
		return nil

	case *plan.SumStore:
		vec, err := c.vecRef(n.Vec, "SumStore")
		if err != nil {
			return err
		}
		arr, err := c.arrayIdx(n.Array, "SumStore")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpSumStore, A: vec, B: arr})
		return nil

	case *plan.ResetCounter:
		c.emit(Instr{Op: OpResetCounter})
		return nil

	case *plan.NewSlab:
		arr, err := c.arrayIdx(n.Array, "NewSlab")
		if err != nil {
			return err
		}
		idx, err := c.varRef(n.Index, "NewSlab index")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpNewSlab, A: arr, B: idx, C: c.bufDef(n.Buf)})
		return nil

	case *plan.Ewise:
		out, err := c.bufRef(n.Out, "Ewise output")
		if err != nil {
			return err
		}
		expr, err := c.compileExpr(n.Expr)
		if err != nil {
			return err
		}
		ins := Instr{Op: OpEwise, A: out, B: expr, C: int32(n.Expr.Ops()), D: -1}
		if n.Array != "" {
			if ins.D, err = c.arrayIdx(n.Array, "Ewise bounds"); err != nil {
				return err
			}
			ins.E, ins.F, ins.G, ins.H = int32(n.Lo), int32(n.Hi), int32(n.Top), int32(n.Bottom)
		}
		c.emit(ins)
		return nil

	case *plan.Exchange:
		if len(n.Ghosts) != len(n.Arrays) {
			return fmt.Errorf("bytecode: Exchange of %d arrays into %d ghost buffers", len(n.Arrays), len(n.Ghosts))
		}
		for i, a := range n.Arrays {
			arr, err := c.arrayIdx(a, "Exchange")
			if err != nil {
				return err
			}
			c.emit(Instr{Op: OpExchange, A: arr, B: c.bufDef(n.Ghosts[i]),
				C: int32(n.Left), D: int32(n.Right), E: int32(i)})
		}
		return nil

	case *plan.Redistribute:
		src, err := c.arrayIdx(n.Src, "Redistribute source")
		if err != nil {
			return err
		}
		dst, err := c.arrayIdx(n.Dst, "Redistribute destination")
		if err != nil {
			return err
		}
		method, err := collio.ParseMethod(n.Method)
		if err != nil {
			return fmt.Errorf("bytecode: %w", err)
		}
		var tr int32
		if n.Transpose {
			tr = 1
		}
		c.emit(Instr{Op: OpAllToAll, A: src, B: dst, C: tr, D: int32(method), E: int32(n.MemElems)})
		return nil

	default:
		return fmt.Errorf("bytecode: unknown node %T", n)
	}
}

// compileExpr flattens an elementwise expression to postfix: left
// subtree, right subtree, operator. The executor's stack evaluation then
// performs the identical sequence of float operations the recursive tree
// evaluation performs.
func (c *compiler) compileExpr(e plan.EExpr) (int32, error) {
	// A binary tree of k operators has k+1 leaves.
	code := make([]ExprInstr, 0, 2*e.Ops()+1)
	var walk func(e plan.EExpr) error
	walk = func(e plan.EExpr) error {
		switch e := e.(type) {
		case *plan.EConst:
			code = append(code, ExprInstr{Op: EPushConst, Val: e.V})
			return nil
		case *plan.EBuf:
			s, err := c.bufRef(e.Buf, "elementwise expression")
			if err != nil {
				return err
			}
			code = append(code, ExprInstr{Op: EPushBuf, A: s, B: int32(e.Off), C: int32(e.Row)})
			return nil
		case *plan.EBin:
			if err := walk(e.L); err != nil {
				return err
			}
			if err := walk(e.R); err != nil {
				return err
			}
			var op ExprOp
			switch e.Op {
			case '+':
				op = EAdd
			case '-':
				op = ESub
			case '*':
				op = EMul
			case '/':
				op = EDiv
			default:
				return fmt.Errorf("bytecode: unknown elementwise operator %q", e.Op)
			}
			code = append(code, ExprInstr{Op: op})
			return nil
		default:
			return fmt.Errorf("bytecode: unknown elementwise expression %T", e)
		}
	}
	if err := walk(e); err != nil {
		return 0, err
	}
	c.bc.Exprs = append(c.bc.Exprs, code)
	return int32(len(c.bc.Exprs) - 1), nil
}

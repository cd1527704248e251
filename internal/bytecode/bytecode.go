// Package bytecode lowers compiled node programs (plan.Program) to the
// flat per-rank opcode stream package exec runs: every run lowers its
// plan first, and the stream is the only thing the engine executes. The
// lowering resolves every operand once — loop variables, slab buffers and
// accumulation vectors become slot indices, arrays become table indices
// with their distribution and strip-mining decisions attached,
// redistribution methods are pre-parsed, elementwise expressions are
// flattened to postfix programs — so the hot path is an integer-indexed
// dispatch over a fixed instruction array, with no name looked up and no
// plan node visited at run time.
//
// The stream performs the file, message and arithmetic operations of the
// plan's statements in source order, commits checkpoints at the same
// (node, iteration) cursors and emits the same trace spans. The engine is
// pinned to a recorded witness of that behaviour — simulated seconds as
// float bits, per-rank clocks, counters, span sequences, outputs and
// manifest bytes of the tree walk it replaced
// (internal/exec/testdata/engine_witness.txt) — so an execution strategy
// over the stream (exec runs a loop whose body is one AXPY as a single
// kernel) has to reproduce it to the bit.
//
// A Program has a stable binary encoding (magic, version, CRC-framed;
// see Encode/Decode). Nothing at run time consumes it — exec lowers in
// memory, and the serving layer's plan cache stores plans — so it is
// kept as what ooc-compile -bytecode prints the size of and what the
// end-to-end benchmark's compile_sweep encodes, decodes and round-trips
// (bytecode.encoded_bytes, bytecode.encode_us, bytecode.decode_us), with
// its decoder fuzzed and its golden bytes pinned here.
package bytecode

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/plan"
)

// Version is the current encoding version. Decode rejects any other.
const Version = 3

// Op is one opcode of the flat instruction stream.
type Op uint8

// The opcode set. Structural opcodes (NODE_ENTER/NODE_EXIT/CKPT*/LOOP*/
// END_LOOP) carry the control and instrumentation skeleton of the
// original top-level statement list; the rest map one-to-one onto plan
// nodes with preresolved operands.
const (
	// OpInvalid is the zero value; a decoded stream must never contain it.
	OpInvalid Op = iota
	// OpCkptInit commits the initial checkpoint at cursor (0,0) when
	// checkpointing is on and the run is not a stats-exact resume. It is
	// only reached when execution starts from the top.
	OpCkptInit
	// OpNodeEnter marks the start of top-level node A (label Labels[B]):
	// the executor records the node-start clock, and resume jumps land
	// here (NodePC[A] points at this instruction).
	OpNodeEnter
	// OpNodeExit closes top-level node A, emitting the KindNode span when
	// the simulated clock advanced.
	OpNodeExit
	// OpCkpt commits a checkpoint at cursor (A, 0) when checkpointing is
	// on (the between-top-level-statements boundary). A resume starts
	// with empty buffer slots, so none is emitted at a boundary a slot is
	// live across (an exchange's ghosts, read by the slab loop after it).
	OpCkpt
	// OpLoop begins a loop: variable slot A runs from 0 over the count
	// described by (B=CountKind, C=arg); D is the pc just past the
	// matching OpEndLoop (the jump target when the trip count is zero).
	OpLoop
	// OpLoopCkpt is OpLoop for a top-level loop every rank runs the same
	// trips of (plan.Uniform: a time loop or a SumStore loop) at node
	// index E: with checkpointing on, a checkpoint with cursor (E, v)
	// commits between iterations whenever v is a multiple of the spec's
	// Every.
	OpLoopCkpt
	// OpEndLoop closes the innermost loop (its OpLoop sits at pc A):
	// advance the iteration, jump back to A+1 or fall through.
	OpEndLoop
	// OpLoadSlab reads slab vars[B] of array A into buffer slot C
	// (plan.ReadSlab). D=1 marks a compiler-proven sequential scan served
	// through prefetch-capable reader E; D=2 widens a column slab by F
	// columns on the left and G on the right, the ones beyond the local
	// block taken from ghost buffer E.
	OpLoadSlab
	// OpNewStaging allocates a staging buffer for array A covering the
	// local rows of buffer B and all local columns, binding it to buffer
	// slot C and as A's staging target (plan.NewStaging).
	OpNewStaging
	// OpAutoStage enables counter-driven staging for array A
	// (plan.AutoStage).
	OpAutoStage
	// OpFlushStage writes array A's pending staging buffer
	// (plan.FlushStage).
	OpFlushStage
	// OpStoreSlab writes buffer B back to its section of array A
	// (plan.WriteBuf).
	OpStoreSlab
	// OpZeroVec clears vector slot A, sized to the rows of buffer B, or
	// to the local rows of array C when B is -1 (plan.ZeroVec).
	OpZeroVec
	// OpAxpy accumulates vec[A] += bufs[B][:, vars[C]] * bufs[D][row,
	// vars[H]] with row = vars[E]*slabWidth(F) + vars[G]; E, F and G are
	// -1 when absent (plan.Axpy).
	OpAxpy
	// OpSumStore reduces vector A to the owner of the current global
	// column of array B and stores it into B's staging buffer; the
	// implicit counter advances (plan.SumStore).
	OpSumStore
	// OpResetCounter clears the implicit global column counter
	// (plan.ResetCounter).
	OpResetCounter
	// OpNewSlab allocates a zeroed output buffer positioned like slab
	// vars[B] of array A into buffer slot C (plan.NewSlab).
	OpNewSlab
	// OpEwise evaluates expression program B elementwise into buffer A,
	// charging C arithmetic operations per element (plan.Ewise). D >= 0
	// bounds it: only the columns of A (a slab of array D) of global index
	// E..F are evaluated, less G rows at their top and H at their bottom,
	// each charged as a computation of C·(rows-G-H).
	OpEwise
	// OpExchange trades boundary columns of array A with the neighboring
	// processors into ghost buffer B: the C columns below this block and
	// the D columns above it, under the message tags of the statement's
	// E-th exchanged array (plan.Exchange, one instruction per array).
	OpExchange
	// OpAllToAll redistributes array A into array B through the
	// collective I/O layer: C=1 transposes the global indices, D is the
	// pre-parsed collio method, E the per-processor memory budget
	// (plan.Redistribute).
	OpAllToAll

	opCount // number of defined opcodes; keep last
)

var opNames = [...]string{
	OpInvalid:      "INVALID",
	OpCkptInit:     "CKPT_INIT",
	OpNodeEnter:    "NODE_ENTER",
	OpNodeExit:     "NODE_EXIT",
	OpCkpt:         "CKPT",
	OpLoop:         "LOOP",
	OpLoopCkpt:     "LOOP_CKPT",
	OpEndLoop:      "END_LOOP",
	OpLoadSlab:     "LOAD_SLAB",
	OpNewStaging:   "NEW_STAGING",
	OpAutoStage:    "AUTO_STAGE",
	OpFlushStage:   "FLUSH_STAGE",
	OpStoreSlab:    "STORE_SLAB",
	OpZeroVec:      "ZERO_VEC",
	OpAxpy:         "AXPY",
	OpSumStore:     "SUM_STORE",
	OpResetCounter: "RESET_COUNTER",
	OpNewSlab:      "NEW_SLAB",
	OpEwise:        "EWISE",
	OpExchange:     "EXCHANGE",
	OpAllToAll:     "ALLTOALL",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Count kinds of OpLoop/OpLoopCkpt operand B: how the trip count is
// resolved at loop entry.
const (
	// CountLit: the count is the literal in C.
	CountLit int32 = iota
	// CountSlabs: the count is the slab count of array C's decomposition.
	CountSlabs
	// CountCols: the count is the column count of buffer C.
	CountCols
)

// Instr is one fixed-width instruction. Operand meaning is per-opcode
// (see the Op constants); unused operands are zero, absent optional
// operands are -1.
type Instr struct {
	Op                     Op
	A, B, C, D, E, F, G, H int32
}

// ExprOp is one opcode of a postfix expression program (the lowered form
// of plan.EExpr, evaluated column-at-a-time by the executor over a small
// buffer stack with in-place left-operand mutation — the same float
// operation sequence as the recursive tree evaluation).
type ExprOp uint8

// Expression opcodes.
const (
	// EInvalid is the zero value; never present in a valid program.
	EInvalid ExprOp = iota
	// EPushConst pushes a column filled with Val (plan.EConst).
	EPushConst
	// EPushBuf pushes a copy of buffer slot A (plan.EBuf): of its
	// element at the output's position, or in a bounded OpEwise of its
	// column at the output column's local index plus B, rows shifted by C.
	EPushBuf
	// EAdd, ESub, EMul and EDiv pop the right operand, combine it into
	// the left in place, and release the right operand's buffer.
	EAdd
	ESub
	EMul
	EDiv

	exprOpCount // keep last
)

var exprOpNames = [...]string{
	EInvalid:   "EINVALID",
	EPushConst: "PUSH_CONST",
	EPushBuf:   "PUSH_BUF",
	EAdd:       "ADD",
	ESub:       "SUB",
	EMul:       "MUL",
	EDiv:       "DIV",
}

// String names the expression opcode.
func (o ExprOp) String() string {
	if int(o) < len(exprOpNames) && exprOpNames[o] != "" {
		return exprOpNames[o]
	}
	return fmt.Sprintf("eop(%d)", uint8(o))
}

// ExprInstr is one postfix expression instruction. Its encoding carries
// one 8-byte operand after A and B: Val for EPushConst, C for every other
// opcode (so a stream without row offsets encodes as it did before C).
type ExprInstr struct {
	Op      ExprOp
	A, B, C int32
	Val     float64
}

// Program is a compiled per-rank opcode stream with its resolved operand
// tables. It is immutable after Compile/Decode and safe to share across
// concurrent executions, like the plan.Program it was lowered from.
type Program struct {
	// Name, N, Procs and Strategy mirror the source plan's header.
	Name     string
	N, Procs int
	Strategy string
	// Fingerprint is plan.Fingerprint of the lowered program, without
	// runtime switches or extras: the key a persisted cache stores the
	// stream under.
	Fingerprint string
	// Arrays is the array table: every out-of-core array with its
	// distribution and strip-mining decision, in plan order. Instruction
	// operands index it.
	Arrays []plan.ArraySpec
	// VarNames, BufNames and VecNames name the slots, for disassembly
	// and error reporting.
	VarNames []string
	BufNames []string
	VecNames []string
	// Labels holds the KindNode span labels of the top-level nodes.
	Labels []string
	// Exprs is the table of postfix expression programs referenced by
	// OpEwise.
	Exprs [][]ExprInstr
	// Code is the instruction stream.
	Code []Instr
	// NodePC maps each top-level node index to the pc of its OpNodeEnter
	// — the resume jump table for checkpoint cursors.
	NodePC []int32
	// Readers is the number of prefetch-capable reader slots (one per
	// stream-marked OpLoadSlab instruction).
	Readers int
}

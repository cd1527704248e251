package bytecode_test

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/plan"
)

// TestLiveBufferDropsCheckpoints: a resume starts with empty buffer slots,
// so the lowering emits no checkpoint a resume could land on while a slot
// bound by an earlier top-level node is still to be read. Node 2 reads
// the slab node 0 bound: the boundaries before nodes 1 and 2 lose their
// CKPT and node 2's SumStore loop its iteration checkpoints, while the
// boundary before node 3, with nothing live across it, keeps its CKPT.
// Without the read every checkpoint stays. (Node 0 is a slab loop: a
// literal count would make it a checkpointing time loop.)
func TestLiveBufferDropsCheckpoints(t *testing.T) {
	for _, live := range []bool{true, false} {
		zero := &plan.ZeroVec{Vec: "t", RowsOfArray: "a"}
		if live {
			zero = &plan.ZeroVec{Vec: "t", RowsLike: "icla_a"}
		}
		p := &plan.Program{Name: "live", N: 8, Procs: 1,
			Arrays: []plan.ArraySpec{{Name: "a", Rows: 8, Cols: 8}, {Name: "c", Rows: 8, Cols: 8, Role: plan.Out}},
			Body: []plan.Node{
				&plan.Loop{Var: "l", Count: plan.CountExpr{SlabsOf: "a"}, Body: []plan.Node{
					&plan.ReadSlab{Array: "a", Index: "l", Buf: "icla_a"},
				}},
				&plan.ResetCounter{},
				&plan.Loop{Var: "m", Count: plan.CountExpr{Lit: 2}, Body: []plan.Node{
					zero, &plan.SumStore{Vec: "t", Array: "c"},
				}},
				&plan.FlushStage{Array: "c"},
			}}
		bc, err := bytecode.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		var ckpts []int32
		loopCkpts := 0
		for _, ins := range bc.Code {
			switch ins.Op {
			case bytecode.OpCkpt:
				ckpts = append(ckpts, ins.A)
			case bytecode.OpLoopCkpt:
				loopCkpts++
			}
		}
		wantCkpts, wantLoopCkpts := "[1 2 3]", 1
		if live {
			wantCkpts, wantLoopCkpts = "[3]", 0
		}
		if got := fmt.Sprint(ckpts); got != wantCkpts || loopCkpts != wantLoopCkpts {
			t.Errorf("live %v: CKPT cursors %s and %d LOOP_CKPT, want %s and %d:\n%s",
				live, got, loopCkpts, wantCkpts, wantLoopCkpts, bc.Disassemble())
		}
	}
}

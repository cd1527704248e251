package trace

import (
	"reflect"
	"testing"
)

// movedFields names the fields of struct v that are no longer zero,
// prefixed with prefix.
func movedFields(v reflect.Value, prefix string) []string {
	var moved []string
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			moved = append(moved, prefix+v.Type().Field(i).Name)
		}
	}
	return moved
}

// TestFoldCoversEveryCounter holds the Kind→counter table complete and
// routed the way ReplayRank routes it: every counter field of IOStats and
// CommStats, and ProcStats' Flops and ComputeSeconds, is changed by
// folding at least one kind; a kind moves IOStats counters only if it is
// folded per sink label, and ProcStats counters only otherwise; and the
// overlay and instant kinds with no counter change nothing.
func TestFoldCoversEveryCounter(t *testing.T) {
	noCounter := map[Kind]bool{KindIOWait: true, KindFault: true, KindCheckpoint: true, KindNode: true, KindPhase: true}
	moved := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		sp := Span{Kind: k, Label: "a", Start: 2, Dur: 0.5, Peer: 1, N: 3, M: 5, Bytes: 700, Bytes2: 900}
		var io IOStats
		io.Fold(sp)
		var ps ProcStats
		ps.Fold(sp)
		ioMoved := movedFields(reflect.ValueOf(io), "IOStats.")
		procMoved := movedFields(reflect.ValueOf(ps.Comm), "CommStats.")
		for _, f := range movedFields(reflect.ValueOf(ps), "ProcStats.") {
			switch f {
			case "ProcStats.Comm":
			case "ProcStats.Flops", "ProcStats.ComputeSeconds":
				procMoved = append(procMoved, f)
			default:
				t.Errorf("%s: ProcStats.Fold moves %s, which no span folds into", k, f)
			}
		}
		switch {
		case noCounter[k]:
			if len(ioMoved)+len(procMoved) > 0 {
				t.Errorf("%s has no counter, but folding it moves %v %v", k, ioMoved, procMoved)
			}
		case len(ioMoved)+len(procMoved) == 0:
			t.Errorf("%s moves no counter", k)
		case foldsIO(k) && len(procMoved) > 0:
			t.Errorf("%s folds per sink label, but ProcStats.Fold moves %v", k, procMoved)
		case !foldsIO(k) && len(ioMoved) > 0:
			t.Errorf("%s folds into ProcStats, but IOStats.Fold moves %v", k, ioMoved)
		}
		for _, f := range append(ioMoved, procMoved...) {
			moved[f] = true
		}
	}
	var want []string
	for _, v := range []struct {
		typ    reflect.Type
		prefix string
	}{{reflect.TypeOf(IOStats{}), "IOStats."}, {reflect.TypeOf(CommStats{}), "CommStats."}} {
		for i := 0; i < v.typ.NumField(); i++ {
			want = append(want, v.prefix+v.typ.Field(i).Name)
		}
	}
	want = append(want, "ProcStats.Flops", "ProcStats.ComputeSeconds")
	for _, f := range want {
		if !moved[f] {
			t.Errorf("no span kind folds into %s", f)
		}
	}
}

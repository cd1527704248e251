package dist

import (
	"sync"
	"testing"
)

// TestTables2AgainstOracle compares every table entry with the readable
// definitions it replaces in inner loops: Own/Loc with ToLocal2 (and so
// Owner2), Globals with ToGlobal under ProcCoord, Rows with LocalShape.
func TestTables2AgainstOracle(t *testing.T) {
	mk := func(a *Array, err error) *Array {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := []*Array{
		mk(NewArray("col-block", NewCollapsed(12), NewBlock(12, 4))),
		mk(NewArray("row-block-ragged", NewBlock(10, 4), NewCollapsed(7))), // blocks 3,3,3,1
		mk(NewArray("block-empty-tail", NewCollapsed(3), NewBlock(9, 6))),  // blocks 2,2,2,2,1,0
		mk(NewArray("cyclic", NewCollapsed(5), NewCyclic(11, 3))),          // N not divisible by P
		mk(NewArray("block-cyclic", NewBlockCyclic(23, 4, 3), NewCollapsed(4))),
		mk(NewArray("block-cyclic-partial", NewCollapsed(2), NewBlockCyclic(10, 3, 4))), // last block cut
		mk(NewArray("replicated", NewCollapsed(6), NewCollapsed(5))),
		mk(NewArray("more-procs-than-rows", NewBlock(3, 5), NewCollapsed(4))),
		mk(NewArray("empty", NewCollapsed(0), NewBlock(0, 2))),
		mk(NewGridArray("grid-block-block", NewGrid(2, 3), NewBlock(13, 2), NewBlock(11, 3))),
		mk(NewGridArray("grid-cyclic-bc", NewGrid(3, 2), NewCyclic(10, 3), NewBlockCyclic(9, 2, 2))),
		mk(NewGridArray("grid-1d", NewGrid(4), NewCollapsed(6), NewCyclic(9, 4))),
		// A raw literal skips Validate: off a grid only the first
		// distributed dimension names the owner.
		{Name: "raw-both-distributed", Dims: []Map{NewBlock(6, 2), NewBlock(6, 2)}},
	}
	for _, a := range cases {
		t.Run(a.Name, func(t *testing.T) {
			tb := a.Tables2()
			shape := a.GlobalShape()
			for d := 0; d < 2; d++ {
				if len(tb.Dim[d].Own) != shape[d] || len(tb.Dim[d].Loc) != shape[d] {
					t.Fatalf("dim %d: tables of %d/%d entries for extent %d",
						d, len(tb.Dim[d].Own), len(tb.Dim[d].Loc), shape[d])
				}
			}
			for i := 0; i < shape[0]; i++ {
				for j := 0; j < shape[1]; j++ {
					owner, li, lj := a.ToLocal2(i, j)
					if got := int(tb.Dim[0].Own[i] + tb.Dim[1].Own[j]); got != owner || got != a.Owner2(i, j) {
						t.Fatalf("owner of (%d,%d): tables %d, ToLocal2 %d, Owner2 %d", i, j, got, owner, a.Owner2(i, j))
					}
					if int(tb.Dim[0].Loc[i]) != li || int(tb.Dim[1].Loc[j]) != lj {
						t.Fatalf("local of (%d,%d): tables (%d,%d), ToLocal2 (%d,%d)",
							i, j, tb.Dim[0].Loc[i], tb.Dim[1].Loc[j], li, lj)
					}
				}
			}
			if a.Name == "raw-both-distributed" {
				return // ProcCoord is only defined on validated mappings
			}
			if len(tb.Rows) != a.Procs() {
				t.Fatalf("Rows has %d entries for %d processors", len(tb.Rows), a.Procs())
			}
			for q := 0; q < a.Procs(); q++ {
				local := a.LocalShape(q)
				if rows, cols := a.LocalGlobals(q); len(rows) != local[0] || len(cols) != local[1] {
					t.Fatalf("LocalGlobals(%d) is %dx%d, LocalShape %v", q, len(rows), len(cols), local)
				}
				if int(tb.Rows[q]) != local[0] {
					t.Fatalf("Rows[%d] = %d, LocalShape %v", q, tb.Rows[q], local)
				}
				for d := 0; d < 2; d++ {
					c := a.ProcCoord(q, d)
					gl := tb.Dim[d].Globals(c)
					if len(gl) != local[d] {
						t.Fatalf("rank %d dim %d: %d globals for %d local indices", q, d, len(gl), local[d])
					}
					for l, g := range gl {
						if want := a.Dims[d].ToGlobal(c, l); int(g) != want {
							t.Fatalf("rank %d dim %d local %d: table %d, ToGlobal %d", q, d, l, g, want)
						}
					}
				}
			}
		})
	}
}

// TestTables2PublishedOnce has many goroutines ask a fresh mapping for its
// tables at once (run under -race): all must see the same fully built
// value.
func TestTables2PublishedOnce(t *testing.T) {
	a, err := NewGridArray("shared", NewGrid(2, 2), NewBlock(64, 2), NewCyclic(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	const askers = 16
	got := make([]*Tables2, askers)
	var wg sync.WaitGroup
	for k := 0; k < askers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tb := a.Tables2()
			if tb.Dim[0].Own[63]+tb.Dim[1].Own[63] != int32(a.Owner2(63, 63)) {
				t.Errorf("asker %d read an unfinished table", k)
			}
			got[k] = tb
		}(k)
	}
	wg.Wait()
	for k := 1; k < askers; k++ {
		if got[k] != got[0] {
			t.Fatalf("asker %d got a different table than asker 0", k)
		}
	}
}

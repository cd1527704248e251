package oocarray

import (
	"fmt"
	"math"
	"testing"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
)

// filled fills rank proc's share of dm from in on a fresh disk and
// returns the local section and the number of transfers the fill issued.
func filled(t *testing.T, dm *dist.Array, proc int, in Input) ([]float64, int) {
	t.Helper()
	disk := iosim.NewDisk(iosim.NewMemFS(), sim.Delta(dm.Procs()), nil)
	arr, err := New(disk, dm, proc, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	ops := 0
	disk.SetOpHook(func() { ops++ })
	if err := arr.Fill(in); err != nil {
		t.Fatal(err)
	}
	disk.SetOpHook(nil)
	m, err := arr.ReadLocal()
	if err != nil {
		t.Fatal(err)
	}
	return m.Data, ops
}

// TestSeparableFillMatchesElementFill fills every rank's share of an
// array twice, once from a separable input and once from its element
// form, over BLOCK, CYCLIC and CYCLIC(k) maps on either dimension,
// ragged last blocks (one rank left empty), collapsed maps and a 2-D
// grid, for both operators: the two must leave the same bits in the
// file and issue the same number of transfers, one per local column.
func TestSeparableFillMatchesElementFill(t *testing.T) {
	row := func(g int) float64 { return 1 / float64(g+3) }
	col := func(g int) float64 { return math.Sqrt(float64(g + 1)) }
	type mapping struct {
		name string
		make func() (*dist.Array, error)
	}
	var maps []mapping
	for _, p := range []int{1, 4} {
		for _, n := range []int{5, 10, 16} {
			for _, m := range []struct {
				name       string
				rows, cols dist.Map
			}{
				{"(*,BLOCK)", dist.NewCollapsed(n), dist.NewBlock(n, p)},
				{"(BLOCK,*)", dist.NewBlock(n, p), dist.NewCollapsed(n)},
				{"(*,CYCLIC)", dist.NewCollapsed(n), dist.NewCyclic(n, p)},
				{"(CYCLIC(3),*)", dist.NewBlockCyclic(n, p, 3), dist.NewCollapsed(n)},
				{"(*,CYCLIC(2))", dist.NewCollapsed(n), dist.NewBlockCyclic(n, p, 2)},
			} {
				maps = append(maps, mapping{fmt.Sprintf("%s n=%d p=%d", m.name, n, p),
					func() (*dist.Array, error) { return dist.NewArray("a", m.rows, m.cols) }})
			}
		}
	}
	maps = append(maps,
		mapping{"(*,*) n=7", func() (*dist.Array, error) {
			return dist.NewArray("a", dist.NewCollapsed(7), dist.NewCollapsed(7))
		}},
		mapping{"(BLOCK,CYCLIC) on 2x2 n=10", func() (*dist.Array, error) {
			return dist.NewGridArray("a", dist.NewGrid(2, 2), dist.NewBlock(10, 2), dist.NewCyclic(10, 2))
		}})
	for _, m := range maps {
		dm, err := m.make()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for _, add := range []bool{false, true} {
			at := func(gi, gj int) float64 { return row(gi) * col(gj) }
			if add {
				at = func(gi, gj int) float64 { return row(gi) + col(gj) }
			}
			for proc := 0; proc < dm.Procs(); proc++ {
				sep, sepOps := filled(t, dm, proc, Input{Row: row, Col: col, Add: add})
				el, elOps := filled(t, dm, proc, Input{At: at})
				if cols := dm.LocalShape(proc)[1]; sepOps != elOps || (len(el) > 0 && elOps != cols) {
					t.Errorf("%s add=%v rank %d: separable fill issued %d transfers, element fill %d, want %d",
						m.name, add, proc, sepOps, elOps, cols)
				}
				for i := range el {
					if math.Float64bits(sep[i]) != math.Float64bits(el[i]) {
						t.Fatalf("%s add=%v rank %d: element %d is %v, element fill gives %v",
							m.name, add, proc, i, sep[i], el[i])
					}
				}
			}
		}
	}
}

// TestFillRejectsIncompleteInput: an input needs At, or both Row and Col.
func TestFillRejectsIncompleteInput(t *testing.T) {
	arr, _ := newTestArray(t, 8, 2, 0, nil, Options{})
	t.Cleanup(func() { arr.Close() })
	for _, in := range []Input{{}, {Row: func(int) float64 { return 1 }}, {Col: func(int) float64 { return 1 }, Add: true}} {
		if err := arr.Fill(in); err == nil {
			t.Errorf("Fill(%+v) succeeded", in)
		}
	}
}

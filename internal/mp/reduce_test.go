package mp

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/sim"
)

func TestReduceWithMax(t *testing.T) {
	for _, procs := range []int{1, 2, 5, 8} {
		procs := procs
		t.Run(fmt.Sprintf("p=%d", procs), func(t *testing.T) {
			run(t, procs, func(p *Proc) error {
				data := []float64{float64(p.Rank()), -float64(p.Rank())}
				max := p.ReduceWith(0, 1, data, OpMax)
				if p.Rank() == 0 {
					if max[0] != float64(procs-1) || max[1] != 0 {
						return fmt.Errorf("max = %v", max)
					}
				} else if max != nil {
					return fmt.Errorf("non-root got results")
				}
				return nil
			})
		})
	}
}

func TestAllReduceMax(t *testing.T) {
	run(t, 6, func(p *Proc) error {
		got := p.AllReduceMax(3, []float64{float64(p.Rank() * 7 % 5)})
		if got[0] != 4 { // ranks 0..5 give 0,2,4,1,3,0 -> max 4
			return fmt.Errorf("rank %d: max = %v", p.Rank(), got)
		}
		return nil
	})
}

func TestAllReduceWithSumMatchesAllReduce(t *testing.T) {
	run(t, 7, func(p *Proc) error {
		a := p.AllReduce(4, []float64{float64(p.Rank())})
		b := p.AllReduceWith(5, []float64{float64(p.Rank())}, OpSum)
		if a[0] != b[0] {
			return fmt.Errorf("sum mismatch: %v vs %v", a, b)
		}
		return nil
	})
}

func TestOpNames(t *testing.T) {
	if OpSum.Name() != "sum" || OpMax.Name() != "max" {
		t.Error("op names wrong")
	}
}

func TestReduceWithLengthMismatch(t *testing.T) {
	_, err := Run(sim.Delta(2), func(p *Proc) error {
		data := make([]float64, 1+p.Rank()) // different lengths
		p.ReduceWith(0, 1, data, OpMax)
		return nil
	})
	if err == nil {
		t.Fatal("length mismatch should fail")
	}
}

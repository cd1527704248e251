package exec

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// TestRunsOfOneLoweredShareMappings runs one lowered plan twice in a row
// and twice at once: every run routes through the mappings Lower built,
// so each array has one set of routing tables across all four, and the
// runs agree to the bit. Under -race it also pins that the tables, built
// by whichever rank of whichever run asks first, are safe to share.
func TestRunsOfOneLoweredShareMappings(t *testing.T) {
	const n, procs = 32, 4
	for _, src := range []struct{ name, source string }{
		{"gaxpy", hpf.GaxpySource},
		{"transpose", hpf.TransposeSource},
	} {
		t.Run(src.name, func(t *testing.T) {
			cres, err := compiler.CompileSource(src.source, compiler.Options{N: n, Procs: procs, MemElems: 8 * n})
			if err != nil {
				t.Fatal(err)
			}
			fills := map[string]func(int, int) float64{}
			for _, a := range cres.Program.Arrays {
				if a.Role == plan.In {
					fills[a.Name] = func(gi, gj int) float64 { return float64(gi*n + gj) }
				}
			}
			l, err := Lower(cres.Program)
			if err != nil {
				t.Fatal(err)
			}
			runOnce := func() (*Result, error) {
				return RunLowered(context.Background(), l, sim.Delta(procs), Options{Fill: fills})
			}
			results := make([]*Result, 4)
			errs := make([]error, 4)
			results[0], errs[0] = runOnce()
			results[1], errs[1] = runOnce()
			var wg sync.WaitGroup
			for i := 2; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = runOnce()
				}()
			}
			wg.Wait()
			want := make([]*dist.Tables2, len(l.dmaps))
			for i, dm := range l.dmaps {
				want[i] = dm.Tables2()
			}
			var first []byte
			for k, res := range results {
				if errs[k] != nil {
					t.Fatalf("run %d: %v", k, errs[k])
				}
				for i, dm := range res.dmaps {
					if got := dm.Tables2(); got != want[i] {
						t.Errorf("run %d routes %q through tables %p, want the lowered plan's %p", k, dm.Name, got, want[i])
					}
				}
				stats, err := json.Marshal(res.Stats)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					first = stats
				} else if string(stats) != string(first) {
					t.Errorf("run %d's statistics differ from run 0's", k)
				}
				if err := res.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestLowerRejectsUnmappablePlan: a plan whose mapping cannot be built —
// here an array distributed along both dimensions over a 1-D processor
// arrangement — fails in Lower, so no run starts and no plan cache keeps
// it.
func TestLowerRejectsUnmappablePlan(t *testing.T) {
	cres, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 32, Procs: 4, MemElems: 256})
	if err != nil {
		t.Fatal(err)
	}
	p := *cres.Program
	p.Arrays = slices.Clone(p.Arrays)
	p.Arrays[0].RowScheme, p.Arrays[0].ColScheme = dist.Block, dist.Block
	if _, err := Lower(&p); err == nil || !strings.HasPrefix(err.Error(), "exec: lower: ") {
		t.Fatalf("Lower of a plan with an unmappable array: %v, want an exec: lower: error", err)
	}
}

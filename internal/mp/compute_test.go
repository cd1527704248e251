package mp

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// TestComputeNIsNComputes charges n trips both ways from the same
// starting clock: the clock, ComputeSeconds (floats compared as they are)
// and Flops must be equal, and with a tracer attached the span sequences.
// The starting clock is not a multiple of the per-trip time, so one
// addition of n·dt would be caught rounding differently.
func TestComputeNIsNComputes(t *testing.T) {
	const flops = 110
	for _, n := range []int{0, 1, 3, 4, 5, 64} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/traced=%v", n, traced), func(t *testing.T) {
				observe := func(charge func(p *Proc)) (trace.ProcStats, float64, []trace.Span) {
					tr := trace.NewTracer(1)
					var clock float64
					stats, err := Run(sim.Delta(1), func(p *Proc) error {
						if traced {
							p.SetTracer(tr.Rank(0))
						}
						p.Compute(7) // an odd start
						charge(p)
						clock = p.Clock().Seconds()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					return stats.Procs[0], clock, tr.RankSpans(0)
				}
				oneStats, oneClock, oneSpans := observe(func(p *Proc) {
					for i := 0; i < n; i++ {
						p.Compute(flops)
					}
				})
				nStats, nClock, nSpans := observe(func(p *Proc) { p.ComputeN(flops, n) })
				if nStats != oneStats {
					t.Errorf("statistics differ:\nn × Compute %+v\nComputeN    %+v", oneStats, nStats)
				}
				if nClock != oneClock {
					t.Errorf("clock %v after ComputeN, %v after n × Compute", nClock, oneClock)
				}
				if nStats.Flops != int64(7+n*flops) {
					t.Errorf("charged %d flops, want %d", nStats.Flops, 7+n*flops)
				}
				if !reflect.DeepEqual(nSpans, oneSpans) {
					t.Errorf("span sequences differ (%d vs %d spans)", len(nSpans), len(oneSpans))
				}
				if traced && len(nSpans) != n+1 {
					t.Errorf("%d spans, want %d", len(nSpans), n+1)
				}
			})
		}
	}
}

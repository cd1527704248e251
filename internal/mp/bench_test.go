package mp

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/sim"
)

// The in-package numbers of the message path, to read beside the
// end-to-end benchmark (bench/): what one hand-off, one collective and
// one machine cost on the host. Each communication benchmark runs b.N
// operations inside one machine, so steady state is what is timed.

func benchRun(b *testing.B, procs int, node NodeFunc) {
	b.Helper()
	b.ReportAllocs()
	if _, err := Run(sim.Delta(procs), node); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPingPong: one round trip of 1,024 elements between two ranks,
// every hand-off a park and a wake.
func BenchmarkPingPong(b *testing.B) {
	payload := make([]float64, 1024)
	benchRun(b, 2, func(p *Proc) error {
		peer := 1 - p.Rank()
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.Send(peer, 1, payload)
				ReleaseBuf(p.Recv(peer, 2))
			} else {
				p.SendOwned(peer, 2, p.Recv(peer, 1))
			}
		}
		return nil
	})
}

// BenchmarkAllToAll: 64 elements to every peer.
func BenchmarkAllToAll(b *testing.B) {
	for _, procs := range []int{8, 64} {
		b.Run(fmt.Sprintf("p=%d", procs), func(b *testing.B) {
			benchRun(b, procs, func(p *Proc) error {
				parts := make([][]float64, procs)
				for d := range parts {
					parts[d] = make([]float64, 64)
				}
				for i := 0; i < b.N; i++ {
					for _, in := range p.AllToAll(1, parts) {
						ReleaseBuf(in)
					}
				}
				return nil
			})
		})
	}
}

// BenchmarkAllToAllOwned: the same exchange with the parts handed over
// instead of copied — what a redistribution round does with its buckets.
func BenchmarkAllToAllOwned(b *testing.B) {
	for _, procs := range []int{8, 64} {
		b.Run(fmt.Sprintf("p=%d", procs), func(b *testing.B) {
			benchRun(b, procs, func(p *Proc) error {
				parts := make([][]float64, procs)
				for i := 0; i < b.N; i++ {
					for d := range parts {
						parts[d] = AcquireBuf(64)
					}
					for _, in := range p.AllToAllOwned(1, parts) {
						ReleaseBuf(in)
					}
				}
				return nil
			})
		})
	}
}

// BenchmarkReduce: a 512-element global sum at P=64 to a rotating root,
// as GAXPY issues them, with payloads and as a phantom run's counts.
func BenchmarkReduce(b *testing.B) {
	const procs, n = 64, 512
	b.Run("payloads", func(b *testing.B) {
		benchRun(b, procs, func(p *Proc) error {
			data := make([]float64, n)
			for i := 0; i < b.N; i++ {
				ReleaseBuf(p.Reduce(i%procs, 1, data))
			}
			return nil
		})
	})
	b.Run("counts", func(b *testing.B) {
		benchRun(b, procs, func(p *Proc) error {
			for i := 0; i < b.N; i++ {
				p.ReduceElided(i%procs, 1, n)
			}
			return nil
		})
	})
}

// BenchmarkRunSetup: a whole machine that does nothing but one barrier —
// rank spawn, the slot table, the mailboxes of 2(P-1) pairs and the join.
func BenchmarkRunSetup(b *testing.B) {
	for _, procs := range []int{64, 512} {
		b.Run(fmt.Sprintf("p=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(sim.Delta(procs), func(p *Proc) error {
					p.Barrier(1)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReduceElidedSteadyStateZeroAllocs is the count-only companion of
// TestSendRecvSteadyStateZeroAllocs and TestBarrierSteadyStateZeroAllocs
// (TestSecondRunMakesNoMailbox covers the machine): once its mailboxes
// exist, a count-only reduction allocates nothing on any rank.
func TestReduceElidedSteadyStateZeroAllocs(t *testing.T) {
	var allocs [4]float64
	run(t, 4, func(p *Proc) error {
		p.ReduceElided(0, 0, 512) // warm up
		p.Barrier(1)
		allocs[p.Rank()] = testing.AllocsPerRun(50, func() { p.ReduceElided(0, 0, 512) })
		return nil
	})
	for r, n := range allocs {
		if n != 0 {
			t.Errorf("rank %d: steady-state ReduceElided allocates %v times, want 0", r, n)
		}
	}
}

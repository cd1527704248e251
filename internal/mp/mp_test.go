package mp

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/sim"
)

// run executes node on p processors with a Delta config and fails the test
// on error.
func run(t *testing.T, p int, node NodeFunc) {
	t.Helper()
	if _, err := Run(sim.Delta(p), node); err != nil {
		t.Fatal(err)
	}
}

func TestRankAndSize(t *testing.T) {
	seen := make([]bool, 7)
	run(t, 7, func(p *Proc) error {
		if p.Size() != 7 {
			return fmt.Errorf("Size = %d", p.Size())
		}
		seen[p.Rank()] = true // distinct index per goroutine; no race
		return nil
	})
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestSendRecv(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := p.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				return fmt.Errorf("bad payload %v", got)
			}
		}
		return nil
	})
}

func TestSendCopiesData(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			buf := []float64{42}
			p.Send(1, 0, buf)
			buf[0] = -1 // must not affect the message
		} else {
			if got := p.Recv(0, 0); got[0] != 42 {
				return fmt.Errorf("message aliased sender buffer: %v", got)
			}
		}
		return nil
	})
}

func TestMessagesOrderedPerPair(t *testing.T) {
	const n = 50
	run(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				p.Send(1, i, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := p.Recv(0, i); got[0] != float64(i) {
					return fmt.Errorf("out of order: got %v at %d", got, i)
				}
			}
		}
		return nil
	})
}

func TestReduceSum(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 5, 8, 13} {
		procs := procs
		t.Run(fmt.Sprintf("p=%d", procs), func(t *testing.T) {
			run(t, procs, func(p *Proc) error {
				data := []float64{float64(p.Rank()), 1}
				sum := p.Reduce(0, 1, data)
				if p.Rank() == 0 {
					wantA := float64(procs*(procs-1)) / 2
					if sum == nil || sum[0] != wantA || sum[1] != float64(procs) {
						return fmt.Errorf("sum = %v, want [%g %d]", sum, wantA, procs)
					}
				} else if sum != nil {
					return fmt.Errorf("non-root got non-nil %v", sum)
				}
				return nil
			})
		})
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	run(t, 6, func(p *Proc) error {
		sum := p.Reduce(4, 2, []float64{1})
		if p.Rank() == 4 {
			if sum == nil || sum[0] != 6 {
				return fmt.Errorf("root 4 sum = %v", sum)
			}
		} else if sum != nil {
			return fmt.Errorf("rank %d got non-nil", p.Rank())
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 5, 8, 9} {
		for root := 0; root < procs; root += 2 {
			procs, root := procs, root
			t.Run(fmt.Sprintf("p=%d root=%d", procs, root), func(t *testing.T) {
				run(t, procs, func(p *Proc) error {
					var data []float64
					if p.Rank() == root {
						data = []float64{3.25, -1}
					}
					got := p.Bcast(root, 3, data)
					if len(got) != 2 || got[0] != 3.25 || got[1] != -1 {
						return fmt.Errorf("rank %d got %v", p.Rank(), got)
					}
					return nil
				})
			})
		}
	}
}

func TestAllReduce(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 7} {
		procs := procs
		t.Run(fmt.Sprintf("p=%d", procs), func(t *testing.T) {
			run(t, procs, func(p *Proc) error {
				got := p.AllReduce(4, []float64{1, float64(p.Rank())})
				want1 := float64(procs * (procs - 1) / 2)
				if got[0] != float64(procs) || got[1] != want1 {
					return fmt.Errorf("rank %d: got %v", p.Rank(), got)
				}
				return nil
			})
		})
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	stats, err := Run(sim.Delta(4), func(p *Proc) error {
		// Rank 2 does much more compute; after the barrier, every
		// clock must be at least rank 2's pre-barrier time.
		if p.Rank() == 2 {
			p.Compute(int64(p.Config().ComputeRate)) // 1 simulated second
		}
		p.Barrier(9)
		if p.Clock().Seconds() < 1.0 {
			return fmt.Errorf("rank %d clock %g < 1s after barrier", p.Rank(), p.Clock().Seconds())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ElapsedSeconds() < 1.0 {
		t.Errorf("elapsed %g < 1s", stats.ElapsedSeconds())
	}
}

func TestAllToAll(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 6} {
		procs := procs
		t.Run(fmt.Sprintf("p=%d", procs), func(t *testing.T) {
			run(t, procs, func(p *Proc) error {
				parts := make([][]float64, procs)
				for d := range parts {
					parts[d] = []float64{float64(p.Rank()*1000 + d)}
				}
				got := p.AllToAll(7, parts)
				for s, part := range got {
					want := float64(s*1000 + p.Rank())
					if len(part) != 1 || part[0] != want {
						return fmt.Errorf("from %d got %v, want %g", s, part, want)
					}
				}
				return nil
			})
		})
	}
}

func TestComputeChargesClockAndStats(t *testing.T) {
	stats, err := Run(sim.Delta(1), func(p *Proc) error {
		p.Compute(7_600_000) // 2 seconds at 3.8 Mflop/s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := stats.Procs[0]
	if math.Abs(ps.Seconds-2.0) > 1e-9 || ps.Flops != 7_600_000 {
		t.Errorf("stats = %+v", ps)
	}
}

func TestCommStatsCounted(t *testing.T) {
	stats, err := Run(sim.Delta(2), func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 0, make([]float64, 100))
		} else {
			p.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := stats.TotalComm()
	if c.MessagesSent != 1 || c.BytesSent != 400 { // 100 elems * 4 bytes
		t.Errorf("comm stats = %+v", c)
	}
}

func TestNodeErrorPropagates(t *testing.T) {
	_, err := Run(sim.Delta(3), func(p *Proc) error {
		if p.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
}

func TestNodePanicBecomesError(t *testing.T) {
	_, err := Run(sim.Delta(2), func(p *Proc) error {
		if p.Rank() == 0 {
			panic("kaboom")
		}
		// Rank 1 must not deadlock waiting; it does no communication.
		return nil
	})
	if err == nil {
		t.Fatal("want error from panic")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := Run(sim.Config{}, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("zero config should be rejected")
	}
}

func TestSendToSelfPanics(t *testing.T) {
	_, err := Run(sim.Delta(1), func(p *Proc) error {
		p.Send(0, 0, nil)
		return nil
	})
	if err == nil {
		t.Fatal("send-to-self should fail")
	}
}

func TestTagMismatchPanics(t *testing.T) {
	_, err := Run(sim.Delta(2), func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 1, []float64{1})
		} else {
			p.Recv(0, 2)
		}
		return nil
	})
	if err == nil {
		t.Fatal("tag mismatch should fail")
	}
}

func TestReduceDeterministic(t *testing.T) {
	// The binomial combine order is fixed, so repeated runs produce
	// bitwise identical sums.
	sumOnce := func() float64 {
		var result float64
		_, err := Run(sim.Delta(8), func(p *Proc) error {
			v := []float64{0.1 * float64(p.Rank()+1)}
			s := p.Reduce(0, 0, v)
			if p.Rank() == 0 {
				result = s[0] // written once, read after Run returns
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return result
	}
	a, b := sumOnce(), sumOnce()
	if a != b {
		t.Errorf("reduce not deterministic: %x vs %x", a, b)
	}
}

func TestMessageTimeChargesReceiver(t *testing.T) {
	cfg := sim.Delta(2)
	stats, err := Run(cfg, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 0, make([]float64, 1000))
		} else {
			p.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.MsgTime(1000 * int64(cfg.ElemSize))
	for r := 0; r < 2; r++ {
		if got := stats.Procs[r].Seconds; math.Abs(got-want) > 1e-12 {
			t.Errorf("rank %d finished at %g, want %g", r, got, want)
		}
	}
}

func TestPeerDeathUnblocksReceivers(t *testing.T) {
	// Rank 1 dies before sending; rank 0's Recv must turn into an error
	// instead of deadlocking the whole machine.
	done := make(chan error, 1)
	go func() {
		_, err := Run(sim.Delta(3), func(p *Proc) error {
			switch p.Rank() {
			case 0:
				p.Recv(1, 5)
			case 1:
				return fmt.Errorf("simulated node failure")
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("want error from failed machine")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("machine deadlocked on peer death")
	}
}

func TestPeerDeathUnblocksCollectives(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(sim.Delta(4), func(p *Proc) error {
			if p.Rank() == 2 {
				return fmt.Errorf("dead before the barrier")
			}
			p.Barrier(1)
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("want error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("collective deadlocked on peer death")
	}
}

func TestBufferedMessagesDrainAfterExit(t *testing.T) {
	// A processor that finishes early still delivers what it sent.
	run(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 9, []float64{42})
			return nil // exits immediately
		}
		// Give rank 0 time to exit and close its channels.
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
		}
		if got := p.Recv(0, 9); got[0] != 42 {
			return fmt.Errorf("buffered message lost: %v", got)
		}
		return nil
	})
}

func TestRunJoinsAllNodeErrors(t *testing.T) {
	errA := errors.New("rank 0 exploded")
	errB := errors.New("rank 2 exploded")
	_, err := Run(sim.Delta(3), func(p *Proc) error {
		switch p.Rank() {
		case 0:
			return errA
		case 2:
			return errB
		}
		return nil
	})
	if err == nil {
		t.Fatal("want joined error")
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error must contain both failures, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "processor 0") || !strings.Contains(msg, "processor 2") {
		t.Fatalf("joined error must name each failing rank, got %q", msg)
	}
}

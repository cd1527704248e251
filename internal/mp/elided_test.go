package mp

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// rotatingReduce is the node program of a GAXPY's global sums: one
// reduction of n elements to each rank in turn, with payloads or — as a
// phantom run issues it — with counts.
func rotatingReduce(n int, elided bool) NodeFunc {
	return func(p *Proc) error {
		data := make([]float64, n)
		for root := 0; root < p.Size(); root++ {
			if elided {
				p.ReduceElided(root, root, n)
			} else {
				ReleaseBuf(p.Reduce(root, root, data))
			}
		}
		return nil
	}
}

// TestReduceElidedIsReduceToTheSimulation runs the same node program with
// payloads and with counts: statistics (floats compared as they are, not
// within a tolerance), per-rank clocks, operation counts and — with a
// tracer attached — span sequences must be the same.
func TestReduceElidedIsReduceToTheSimulation(t *testing.T) {
	for _, procs := range []int{4, 7, 64} {
		for _, n := range []int{0, 1, 512} {
			t.Run(fmt.Sprintf("p=%d/n=%d", procs, n), func(t *testing.T) {
				type outcome struct {
					stats *trace.Stats
					ops   []int64
					spans [][]trace.Span
				}
				observe := func(elided bool) outcome {
					o := outcome{ops: make([]int64, procs), spans: make([][]trace.Span, procs)}
					tr := trace.NewTracer(procs)
					node := rotatingReduce(n, elided)
					var err error
					o.stats, err = RunOpts(sim.Delta(procs), Options{OpCounts: o.ops}, func(p *Proc) error {
						p.SetTracer(tr.Rank(p.Rank()))
						return node(p)
					})
					if err != nil {
						t.Fatal(err)
					}
					for r := range o.spans {
						o.spans[r] = tr.RankSpans(r)
					}
					return o
				}
				real, counts := observe(false), observe(true)
				for r := range real.stats.Procs {
					if real.stats.Procs[r] != counts.stats.Procs[r] {
						t.Errorf("rank %d statistics differ:\npayloads %+v\ncounts   %+v", r, real.stats.Procs[r], counts.stats.Procs[r])
					}
					if real.ops[r] != counts.ops[r] {
						t.Errorf("rank %d performed %d ops with payloads, %d with counts", r, real.ops[r], counts.ops[r])
					}
					if !reflect.DeepEqual(real.spans[r], counts.spans[r]) {
						t.Errorf("rank %d span sequences differ (%d vs %d spans)", r, len(real.spans[r]), len(counts.spans[r]))
					}
				}
				if len(real.spans[0]) == 0 {
					t.Error("the tracer recorded nothing")
				}
			})
		}
	}
}

// TestKillSweepOverElidedReduce lands a kill on every op index of a
// count-only reduction sequence: each run must resolve to the typed
// errors and agreed set the same kill produces with payloads, and leave
// the checked arena balanced.
func TestKillSweepOverElidedReduce(t *testing.T) {
	const procs, n, victim = 4, 8, 2
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	counts := make([]int64, procs)
	if _, err := RunOpts(sim.Delta(procs), Options{OpCounts: counts}, rotatingReduce(n, true)); err != nil {
		t.Fatal(err)
	}
	if counts[victim] == 0 {
		t.Fatal("the victim performs no operation")
	}
	type outcome struct {
		failed []int
		killed RankKilledError
		agreed string
	}
	kill := func(op int64, elided bool) outcome {
		bufpool.ResetStats()
		opts := Options{
			Kill:         []KillSpec{{Rank: victim, Op: op}},
			StallTimeout: failTestStall,
		}
		_, err := RunOpts(sim.Delta(procs), opts, rotatingReduce(n, elided))
		var rf *RankFailure
		var killed *RankKilledError
		var dead *ErrRankDead
		if !errors.As(err, &rf) || !errors.As(err, &killed) || !errors.As(err, &dead) {
			t.Fatalf("kill at op %d (elided %v): want RankFailure, RankKilledError and ErrRankDead in %v", op, elided, err)
		}
		if strings.Contains(err.Error(), "deadlock watchdog") {
			t.Errorf("kill at op %d (elided %v) resolved via the watchdog: %v", op, elided, err)
		}
		if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
			t.Errorf("kill at op %d (elided %v) leaked arena buffers: %+v", op, elided, s)
		}
		return outcome{failed: rf.Failed, killed: *killed, agreed: fmt.Sprint(dead.Agreed)}
	}
	for op := int64(0); op < counts[victim]; op++ {
		if real, elided := kill(op, false), kill(op, true); !reflect.DeepEqual(real, elided) {
			t.Errorf("kill at op %d: payloads resolved to %+v, counts to %+v", op, real, elided)
		}
	}
}

// TestPayloadMeetsCount: one reduction entered with payloads on one rank
// and with counts on another, a plain Recv that meets a count-only
// message, and two counts that disagree are plan bugs; each must panic
// naming rank, peer and tag, never hand anyone a silent nil, and leave
// the arena balanced.
func TestPayloadMeetsCount(t *testing.T) {
	cases := []struct {
		name string
		node NodeFunc
		want []string
	}{
		{"payload root meets count", func(p *Proc) error {
			if p.Rank() == 0 {
				ReleaseBuf(p.Reduce(0, 9, make([]float64, 3)))
			} else {
				p.ReduceElided(0, 9, 3)
			}
			return nil
		}, []string{"rank 0", "rank 1", "tag 9", "mixes payloads and counts"}},
		{"count root meets payload", func(p *Proc) error {
			if p.Rank() == 0 {
				p.ReduceElided(0, 9, 3)
			} else {
				ReleaseBuf(p.Reduce(0, 9, make([]float64, 3)))
			}
			return nil
		}, []string{"rank 0", "rank 1", "tag 9", "mixes payloads and counts"}},
		{"Recv meets count", func(p *Proc) error {
			if p.Rank() == 0 {
				ReleaseBuf(p.Recv(1, internalTagBase+9))
			} else {
				p.ReduceElided(0, 9, 3)
			}
			return nil
		}, []string{"rank 0", "from 1", fmt.Sprint("tag ", internalTagBase+9), "got a count of 3 elements"}},
		{"counts disagree", func(p *Proc) error {
			p.ReduceElided(0, 9, 4-p.Rank())
			return nil
		}, []string{"rank 0", "rank 1", "tag 9", "length mismatch", "4 vs 3"}},
	}
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for _, c := range cases {
		bufpool.ResetStats()
		_, err := Run(sim.Delta(2), c.node)
		if err == nil {
			t.Errorf("%s: the run succeeded", c.name)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: diagnostic %q is missing %q", c.name, err.Error(), want)
			}
		}
		if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
			t.Errorf("%s leaked arena buffers: %+v", c.name, s)
		}
	}
}

package trace

import (
	"fmt"
	"sort"
)

// RankReplay is the statistics reconstructed from one rank's spans. It
// matches the rank's accumulated counters exactly — counts, bytes and
// (because float64 addition is replayed in emission order) seconds to the
// digit — as long as every span was delivered: the counters were built
// by the very same folds.
type RankReplay struct {
	// IO holds one reconstructed IOStats per statistics sink label
	// (array name, "(parity)", ...).
	IO map[string]*IOStats
	// Proc holds the communication and compute counters; its IO and
	// Seconds stay zero.
	Proc ProcStats
}

// ReplayRank folds one rank's spans, in emission order, back into
// statistics: each span of an I/O kind into the IOStats sink its label
// names, every other span into Proc. The folds are the ones the emission
// sites ran (fold.go), so what Reconcile checks is delivery — that the
// tracer kept every span, on the right rank, in order — not a second
// copy of the Kind→counter mapping.
func ReplayRank(spans []Span) *RankReplay {
	r := &RankReplay{IO: map[string]*IOStats{}}
	for _, s := range spans {
		if !foldsIO(s.Kind) {
			r.Proc.Fold(s)
			continue
		}
		io := r.IO[s.Label]
		if io == nil {
			io = &IOStats{}
			r.IO[s.Label] = io
		}
		io.Fold(s)
	}
	return r
}

// TotalIO folds the per-sink statistics in sorted label order — the
// same order the executor folds per-array sinks into the processor
// total, so the float sums agree exactly.
func (r *RankReplay) TotalIO() IOStats {
	labels := make([]string, 0, len(r.IO))
	for l := range r.IO {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var t IOStats
	for _, l := range labels {
		t.Add(*r.IO[l])
	}
	return t
}

// Reconcile verifies that the spans reproduce the run's statistics
// exactly. spans must keep each rank's emission order (Tracer.Spans and
// the export/import round trip both do). perArray, when non-nil, gives
// the expected per-sink statistics per rank and is checked sink by
// sink; otherwise only per-rank totals are compared. The first
// discrepancy is returned as an error naming rank, sink and field view.
func Reconcile(spans []Span, stats *Stats, perArray []map[string]*IOStats) error {
	byRank := make([][]Span, len(stats.Procs))
	for _, s := range spans {
		if s.Rank < 0 || s.Rank >= len(byRank) {
			return fmt.Errorf("trace: span on rank %d outside the run's %d processors", s.Rank, len(byRank))
		}
		byRank[s.Rank] = append(byRank[s.Rank], s)
	}
	for rank := range stats.Procs {
		ps := &stats.Procs[rank]
		rep := ReplayRank(byRank[rank])
		if perArray != nil {
			want := perArray[rank]
			labels := map[string]bool{}
			for l := range want {
				labels[l] = true
			}
			for l := range rep.IO {
				labels[l] = true
			}
			for l := range labels {
				var w, g IOStats
				if st := want[l]; st != nil {
					w = *st
				}
				if st := rep.IO[l]; st != nil {
					g = *st
				}
				if w != g {
					return fmt.Errorf("trace: rank %d sink %q: spans replay to\n%+v\nbut counters say\n%+v", rank, l, g, w)
				}
			}
		}
		if got := rep.TotalIO(); got != ps.IO {
			return fmt.Errorf("trace: rank %d I/O totals: spans replay to\n%+v\nbut counters say\n%+v", rank, got, ps.IO)
		}
		if got := rep.Proc.Comm; got != ps.Comm {
			return fmt.Errorf("trace: rank %d comm: spans replay to\n%+v\nbut counters say\n%+v", rank, got, ps.Comm)
		}
		if got := rep.Proc.Flops; got != ps.Flops {
			return fmt.Errorf("trace: rank %d flops: spans replay to %d but counters say %d", rank, got, ps.Flops)
		}
		if got := rep.Proc.ComputeSeconds; got != ps.ComputeSeconds {
			return fmt.Errorf("trace: rank %d compute seconds: spans replay to %v but counters say %v", rank, got, ps.ComputeSeconds)
		}
	}
	return nil
}

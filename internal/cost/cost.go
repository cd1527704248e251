// Package cost implements the compiler's I/O cost estimation framework of
// Section 4: for each candidate strip-mining strategy it predicts, per
// processor, the number of slab fetches (T_fetch), the volume of data
// moved (T_data) and the number of physical disk requests, and it selects
// the strategy with the least estimated I/O cost (the algorithm of
// Figure 14). It also implements the Section 4.2.1 policy for dividing
// node memory among competing out-of-core arrays.
package cost

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/ooc-hpf/passion/internal/sim"
)

// Stream models one out-of-core array's traffic in a strip-mined loop
// nest: the OCLA is streamed through memory Passes times in slabs of
// SlabElems elements, each slab fetch touching ChunksPerFetch
// discontiguous file regions.
type Stream struct {
	// Array names the out-of-core array.
	Array string
	// OCLAElems is the out-of-core local array size in elements.
	OCLAElems int64
	// SlabElems is the ICLA (slab) size in elements.
	SlabElems int64
	// Passes is how many times the whole OCLA is streamed.
	Passes int64
	// ChunksPerFetch is the number of discontiguous regions per slab
	// fetch (1 for a contiguous slab; the local column count for a row
	// slab of a column-major array without sieving).
	ChunksPerFetch int64
	// ElemsPerFetch overrides the data volume of one fetch when it
	// differs from SlabElems (e.g. data sieving reads the covering
	// span). Zero means SlabElems.
	ElemsPerFetch int64
	// Write marks output traffic (stores instead of fetches).
	Write bool
}

// SlabsPerPass returns how many slab fetches one full pass needs.
func (s Stream) SlabsPerPass() int64 {
	if s.OCLAElems == 0 {
		return 0
	}
	if s.SlabElems <= 0 {
		return s.OCLAElems // degenerate: one element at a time
	}
	return (s.OCLAElems + s.SlabElems - 1) / s.SlabElems
}

// Fetches returns T_fetch: the total number of slab transfers.
func (s Stream) Fetches() int64 { return s.SlabsPerPass() * s.Passes }

// Elems returns T_data: the total number of elements moved.
func (s Stream) Elems() int64 {
	if s.ElemsPerFetch > 0 {
		return s.Fetches() * s.ElemsPerFetch
	}
	return s.OCLAElems * s.Passes
}

// Requests returns the number of physical disk requests.
func (s Stream) Requests() int64 {
	c := s.ChunksPerFetch
	if c < 1 {
		c = 1
	}
	return s.Fetches() * c
}

// Seconds estimates the simulated I/O time of the stream on the machine.
func (s Stream) Seconds(cfg sim.Config) float64 {
	return s.secondsAt(cfg, cfg.EffectiveDiskBandwidth())
}

// secondsAt is Seconds at the effective disk bandwidth bw.
func (s Stream) secondsAt(cfg sim.Config, bw float64) float64 {
	return cfg.IOTimeAt(bw, int(s.Requests()), s.Elems()*int64(cfg.ElemSize))
}

// Tally is a directly counted I/O term for strategies whose request
// pattern does not fit Stream's per-fetch regularity — the collective
// two-phase schedule, whose scratch-spill and window-flush counts are
// mirrored exactly from the runtime's accounting rather than derived
// from a slab geometry.
type Tally struct {
	// Array names the traffic (e.g. "dst", "scratch").
	Array string
	// Fetches counts logical slab transfers (T_fetch).
	Fetches int64
	// Requests counts physical disk requests.
	Requests int64
	// Elems counts elements moved (T_data).
	Elems int64
	// Write marks output traffic.
	Write bool
}

// Seconds estimates the simulated I/O time of the tally on the machine.
func (t Tally) Seconds(cfg sim.Config) float64 {
	return t.secondsAt(cfg, cfg.EffectiveDiskBandwidth())
}

// secondsAt is Seconds at the effective disk bandwidth bw.
func (t Tally) secondsAt(cfg sim.Config, bw float64) float64 {
	return cfg.IOTimeAt(bw, int(t.Requests), t.Elems*int64(cfg.ElemSize))
}

// CommEstimate models a collective candidate's shuffle traffic under the
// machine's message model: per-message startup latency plus volume over
// the point-to-point bandwidth (send-side, matching how mp charges a
// blocking send).
type CommEstimate struct {
	// Messages counts point-to-point messages per processor.
	Messages int64
	// Elems counts payload words sent per processor.
	Elems int64
}

// Seconds estimates the simulated communication time on the machine.
func (c CommEstimate) Seconds(cfg sim.Config) float64 {
	if c.Messages == 0 && c.Elems == 0 {
		return 0
	}
	// float64(x*y) rounds the product, so it is never fused into a
	// multiply-add (as IOTimeAt).
	return float64(float64(c.Messages)*cfg.MsgLatency) + float64(c.Elems)*float64(cfg.ElemSize)/cfg.MsgBandwidth
}

// Candidate is one complete access strategy for a statement: a label
// (e.g. "row-slab"), the streams of every out-of-core array involved,
// plus directly counted terms and a communication estimate for
// collective strategies. The zero values of Tallies and Comm leave the
// classic stream-only candidates unchanged.
type Candidate struct {
	Label   string
	Streams []Stream
	Tallies []Tally
	Comm    CommEstimate
}

// Seconds estimates the total per-processor cost of the candidate: I/O
// over all streams and tallies, plus shuffle communication. The effective
// disk bandwidth is computed once for all of them.
func (c Candidate) Seconds(cfg sim.Config) float64 {
	bw := cfg.EffectiveDiskBandwidth()
	t := 0.0
	for _, s := range c.Streams {
		t += s.secondsAt(cfg, bw)
	}
	for _, ta := range c.Tallies {
		t += ta.secondsAt(cfg, bw)
	}
	return t + c.Comm.Seconds(cfg)
}

// TotalFetches sums T_fetch over all streams and tallies.
func (c Candidate) TotalFetches() int64 {
	var n int64
	for _, s := range c.Streams {
		n += s.Fetches()
	}
	for _, t := range c.Tallies {
		n += t.Fetches
	}
	return n
}

// TotalElems sums T_data over all streams and tallies.
func (c Candidate) TotalElems() int64 {
	var n int64
	for _, s := range c.Streams {
		n += s.Elems()
	}
	for _, t := range c.Tallies {
		n += t.Elems
	}
	return n
}

// TotalRequests sums physical disk requests over all streams and tallies.
func (c Candidate) TotalRequests() int64 {
	var n int64
	for _, s := range c.Streams {
		n += s.Requests()
	}
	for _, t := range c.Tallies {
		n += t.Requests
	}
	return n
}

// Dominant returns the stream with the largest data volume — the array
// that "requires the largest amount of I/O" in Figure 14's algorithm.
func (c Candidate) Dominant() Stream {
	if len(c.Streams) == 0 {
		return Stream{}
	}
	best := c.Streams[0]
	for _, s := range c.Streams[1:] {
		if s.Elems() > best.Elems() {
			best = s
		}
	}
	return best
}

// String renders a compact cost table for the candidate.
func (c Candidate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", c.Label)
	for _, s := range c.Streams {
		op := "read"
		if s.Write {
			op = "write"
		}
		fmt.Fprintf(&b, " %s[%s fetches=%d elems=%d reqs=%d]",
			s.Array, op, s.Fetches(), s.Elems(), s.Requests())
	}
	for _, t := range c.Tallies {
		op := "read"
		if t.Write {
			op = "write"
		}
		fmt.Fprintf(&b, " %s[%s fetches=%d elems=%d reqs=%d]",
			t.Array, op, t.Fetches, t.Elems, t.Requests)
	}
	if c.Comm.Messages > 0 || c.Comm.Elems > 0 {
		fmt.Fprintf(&b, " comm[msgs=%d elems=%d]", c.Comm.Messages, c.Comm.Elems)
	}
	return b.String()
}

// Select implements the Figure 14 algorithm: evaluate every candidate's
// I/O cost on the machine model and return the index of the cheapest one.
// Ties break toward the earlier candidate. It panics on an empty slice.
func Select(cands []Candidate, cfg sim.Config) int {
	if len(cands) == 0 {
		panic("cost: Select on no candidates")
	}
	best, bestT := 0, cands[0].Seconds(cfg)
	for i, c := range cands[1:] {
		if t := c.Seconds(cfg); t < bestT {
			best, bestT = i+1, t
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Memory allocation among competing arrays (Section 4.2.1)

// WeightedSplit divides total memory elements among arrays proportionally
// to the given access-frequency weights, giving every array at least
// minEach. It is the paper's heuristic: "assign a larger slab size to the
// array with more frequent accesses".
func WeightedSplit(total int, weights []float64, minEach int) []int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	remaining := total - n*minEach
	if remaining < 0 {
		// Not enough memory to honor the minimum; split evenly.
		for i := range out {
			out[i] = total / n
		}
		return out
	}
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	used := 0
	for i, w := range weights {
		share := 0
		if sum > 0 && w > 0 {
			share = int(float64(remaining) * w / sum)
		}
		out[i] = minEach + share
		used += out[i]
	}
	// Hand leftover integer dust to the heaviest array.
	if leftover := total - used; leftover > 0 {
		heaviest := 0
		for i, w := range weights {
			if w > weights[heaviest] {
				heaviest = i
			}
		}
		out[heaviest] += leftover
	}
	return out
}

// Allocate2 searches splits (m1, m2) with m1 + m2 == total, both multiples
// of step and at least step, minimizing f(m1, m2). It returns the best
// split found. This is the exact counterpart of the Table 2 experiment:
// the compiler trying slab-size assignments for two competing arrays.
func Allocate2(total, step int, f func(m1, m2 int) float64) (int, int) {
	if step <= 0 {
		step = 1
	}
	if total < 2*step {
		half := total / 2
		return half, total - half
	}
	bestM1, bestM2 := step, total-step
	bestT := f(bestM1, bestM2)
	for m1 := 2 * step; m1 <= total-step; m1 += step {
		m2 := total - m1
		if t := f(m1, m2); t < bestT {
			bestM1, bestM2, bestT = m1, m2, t
		}
	}
	return bestM1, bestM2
}

// Frequencies returns, for each stream of the candidate, a weight equal to
// its pass count — the compiler's proxy for "how often the array is
// accessed" when applying WeightedSplit. Streams are reported in input
// order.
func Frequencies(c Candidate) []float64 {
	out := make([]float64, len(c.Streams))
	for i, s := range c.Streams {
		out[i] = float64(s.Passes)
	}
	return out
}

// Report formats a comparison of candidates with the chosen index marked,
// mirroring what cmd/ooc-compile prints.
func Report(cands []Candidate, chosen int, cfg sim.Config) string {
	var b strings.Builder
	// Sort a copy by estimated seconds for a stable, readable listing.
	type row struct {
		idx int
		sec float64
	}
	rows := make([]row, len(cands))
	for i, c := range cands {
		rows[i] = row{i, c.Seconds(cfg)}
	}
	slices.SortStableFunc(rows, func(a, b row) int { return cmp.Compare(a.sec, b.sec) })
	for _, r := range rows {
		marker := " "
		if r.idx == chosen {
			marker = "*"
		}
		c := cands[r.idx]
		fmt.Fprintf(&b, "%s %-12s est. I/O %10.2fs  fetches %8d  elems %12d  requests %8d\n",
			marker, c.Label, r.sec, c.TotalFetches(), c.TotalElems(), c.TotalRequests())
	}
	return b.String()
}

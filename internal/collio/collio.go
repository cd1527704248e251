// Package collio implements collective two-phase I/O in the PASSION
// style: all processors read their local array files in the distribution
// the files *have* — one large contiguous run per round — and exchange
// elements in memory through mp.AllToAllOwned, trading disk requests
// (15ms on the Touchstone Delta) for messages (80us). The wire carries
// values, not addresses: sender and receiver compute the same schedule.
// The destination is written by one of three strategies, chosen per
// statement by the cost model:
//
//   - Direct: every run of received elements is its own request.
//   - Sieved: one read-modify-write of the span covering a round's runs.
//   - TwoPhase: elements are staged per destination window, each flushed
//     with one contiguous write (plus one contiguous read when only
//     partially produced), however fragmented the access is.
package collio

import (
	"fmt"
	"slices"
	"strings"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Method selects the destination write strategy of a collective
// redistribution.
type Method int

const (
	// Direct writes each run of consecutive destination elements as its
	// own request.
	Direct Method = iota
	// Sieved covers each round's runs with one span and read-modify-
	// writes it (PASSION write data sieving).
	Sieved
	// TwoPhase stages elements per destination window and flushes every
	// window with one contiguous write.
	TwoPhase
)

var methodNames = [...]string{Direct: "direct", Sieved: "sieved", TwoPhase: "two-phase"}

// String returns the method name as used in plan hints.
func (m Method) String() string {
	if uint(m) < uint(len(methodNames)) {
		return methodNames[m]
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod maps a plan hint back to a Method.
func ParseMethod(s string) (Method, error) {
	if i := slices.Index(methodNames[:], strings.Replace(s, "twophase", "two-phase", 1)); i >= 0 {
		return Method(i), nil
	}
	return 0, fmt.Errorf("collio: unknown method %q (want direct, sieved or two-phase)", s)
}

// Side is one rank's view of a distributed out-of-core array taking part
// in a collective operation: its mapping, its local array file, and the
// local (column-major) shape of that file.
type Side struct {
	Map  *dist.Array
	LAF  *iosim.LAF
	Rank int
	// Rows and Cols are the local array shape on this rank; the LAF
	// stores it column-major.
	Rows, Cols int
	// Charge applies simulated seconds to the rank's clock under a span
	// kind ("io-read"/"io-write"). Nil skips clock accounting.
	Charge func(kind string, seconds float64)
}

func (s Side) charge(kind string, seconds float64) {
	if s.Charge != nil {
		s.Charge(kind, seconds)
	}
}

// SrcSlabWidth returns the width in columns of a round's source slab, one
// contiguous run of full local columns in half the memory budget.
func SrcSlabWidth(memElems, rows, cols int) int {
	return clampWidth(memElems/2, rows, cols)
}

// WindowWidth returns the width in columns of a two-phase destination
// window: a quarter of the memory budget.
func WindowWidth(memElems, rows, cols int) int {
	return clampWidth(memElems/4, rows, cols)
}

func clampWidth(budget, rows, cols int) int {
	if rows <= 0 || cols <= 0 {
		return 1
	}
	return min(max(budget/rows, 1), cols)
}

// IndexMap says where a redistribution puts each element: the global
// index pair of the destination at which source element (gi, gj) lands.
// The zero value is the identity; Transpose swaps the indices; Func wraps
// any other map, whose schedule the inspector measures.
type IndexMap struct {
	transpose bool
	fn        func(gi, gj int) (di, dj int)
}

// Transpose is the index map (gi, gj) -> (gj, gi).
func Transpose() IndexMap { return IndexMap{transpose: true} }

// Func is the index map given by an arbitrary function; nil is the
// identity.
func Func(fn func(gi, gj int) (di, dj int)) IndexMap { return IndexMap{fn: fn} }

// ShapeError is an index map sending a source element outside the
// destination's global shape.
type ShapeError struct {
	Gi, Gj, Di, Dj int
	Shape          [2]int
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("collio: transform maps (gi,gj)=(%d,%d) to (%d,%d) outside destination shape %v",
		e.Gi, e.Gj, e.Di, e.Dj, e.Shape)
}

// PayloadError is a round's message whose length is not the number of
// values the schedule says its sender sends.
type PayloadError struct{ From, Round, Got, Want int }

func (e *PayloadError) Error() string {
	return fmt.Sprintf("collio: round %d payload of %d values from rank %d, where the schedule has %d",
		e.Round, e.Got, e.From, e.Want)
}

// Redistribute copies the distributed array described by src into the one
// described by dst, storing every source element where the index map m
// puts it (under the identity the global shapes must agree). All ranks
// must call it collectively with the same memElems, tag, map and method.
// An index map leaving the destination's shape is a *ShapeError on every
// rank: the source's corners are tried before the first collective, which
// settles a structured map, and the inspector tries every element of a
// func.
func Redistribute(p *mp.Proc, src, dst Side, memElems, tag int, m IndexMap, method Method) error {
	return redistribute(p, src, dst, memElems, tag, m, method, p.AllToAllOwned)
}

// redistribute is Redistribute with the shuffle passed in, so the
// wire-level witness test can see every exchange's payloads.
func redistribute(p *mp.Proc, src, dst Side, memElems, tag int, m IndexMap, method Method,
	exchange func(tag int, parts [][]float64) [][]float64) error {
	me, size := p.Rank(), p.Size()
	if src.Rank != me || dst.Rank != me {
		return fmt.Errorf("collio: redistribute on rank %d given sides of ranks %d and %d", me, src.Rank, dst.Rank)
	}
	if len(src.Map.Dims) != 2 || len(dst.Map.Dims) != 2 {
		return fmt.Errorf("collio: redistribute wants two-dimensional arrays, got global shapes %v and %v",
			src.Map.GlobalShape(), dst.Map.GlobalShape())
	}
	// Arrays, not GlobalShape's slices: an error message boxes them, and a
	// boxed slice would put both on the heap in every call.
	ss := [2]int{src.Map.Dims[0].Extent, src.Map.Dims[1].Extent}
	ds := [2]int{dst.Map.Dims[0].Extent, dst.Map.Dims[1].Extent}
	if m.fn == nil && !m.transpose && ss != ds {
		return fmt.Errorf("collio: redistribute between different global shapes %v and %v", ss, ds)
	}
	dstT := dst.Map.Tables2()
	if len(dstT.Rows) > size {
		return fmt.Errorf("collio: destination mapping spans %d processors on a machine of %d", len(dstT.Rows), size)
	}
	for _, s := range [2]Side{src, dst} {
		if rows, cols := localShape(s.Map, me); rows != s.Rows || cols != s.Cols {
			return fmt.Errorf("collio: side %s of rank %d is %dx%d but its mapping gives the rank %dx%d",
				s.Map.Name, me, s.Rows, s.Cols, rows, cols)
		}
	}
	if ss[0] > 0 && ss[1] > 0 {
		for _, gi := range [2]int{0, ss[0] - 1} {
			for _, gj := range [2]int{0, ss[1] - 1} {
				di, dj := gi, gj
				if m.transpose {
					di, dj = gj, gi
				} else if m.fn != nil {
					di, dj = m.fn(gi, gj)
				}
				if !inShape(di, dj, ds) {
					return &ShapeError{Gi: gi, Gj: gj, Di: di, Dj: dj, Shape: ds}
				}
			}
		}
	}
	sched := newSchedule(me, size, src.Map, dstT, dst, memElems, m)
	defer sched.release()
	// Every payload — round buckets, the inspector's tables, what arrives
	// — is taken from and released to the rank's cache.
	bufs := p.Cache()

	// phase brackets each stage with an overlay span: the timeline shows
	// where the time goes without touching the reconciled leaf spans.
	tr, clock := p.Tracer(), p.Clock()
	phase := func(label string, start float64) {
		if now := clock.Seconds(); tr != nil && now > start {
			tr.Emit(trace.Span{Kind: trace.KindPhase, Label: label, Start: start, Dur: now - start})
		}
	}
	if m.fn != nil {
		t := clock.Seconds()
		if err := sched.inspect(bufs, m.fn, ds, tag, exchange); err != nil {
			return err
		}
		phase("collio:inspect", t)
	}

	// Every rank takes part in the most rounds any rank has.
	w, myRounds := sched.srcs[me].w, sched.srcs[me].rounds
	rm := p.AllReduceMax(tag, []float64{float64(myRounds)})
	rounds := int(rm[0])
	bufs.PutF64(rm)

	recv, err := newReceiver(dst, memElems, method, sched)
	if err != nil {
		return err
	}
	defer recv.cleanup()

	buf := bufpool.GetF64(src.Rows * w)
	defer bufpool.PutF64(buf)
	if src.LAF.Disk().Phantom() {
		// Phantom reads leave the slab untouched; the pooled buffer must
		// start out zeroed like the make it replaced.
		clear(buf)
	}
	// parts holds a round's buckets, one exactly sized arena buffer per
	// owner; the exchange takes them, and an error or panic returns any
	// still there.
	parts := make([][]float64, size)
	defer releaseBuckets(bufs, parts)
	for round := 0; round < rounds; round++ {
		t0 := clock.Seconds()
		if round < myRounds {
			c0 := round * w
			data := buf[:src.Rows*min(w, src.Cols-c0)]
			sec, err := src.LAF.ReadChunks([]iosim.Chunk{{Off: int64(c0) * int64(src.Rows), Len: len(data)}}, data)
			if err != nil {
				return err
			}
			src.charge("io-read", sec)
			sched.fill(bufs, parts, data, round)
		}
		phase("collio:read", t0)
		t1 := clock.Seconds()
		incoming := exchange(tag, parts)
		phase("collio:shuffle", t1)
		t2 := clock.Seconds()
		if err := absorbRound(bufs, recv, round, incoming); err != nil {
			return err
		}
		phase("collio:write", t2)
	}
	tEnd := clock.Seconds()
	err = recv.finish()
	phase("collio:write", tEnd)
	return err
}

// localShape is a rank's local shape under a mapping; a rank the mapping
// does not reach holds nothing.
func localShape(a *dist.Array, rank int) (rows, cols int) {
	if rank >= a.Procs() {
		return 0, 0
	}
	rowG, colG := a.LocalGlobals(rank)
	return len(rowG), len(colG)
}

// inShape reports whether (di, dj) lies in the global shape ds; one
// unsigned compare per index also rejects negatives.
func inShape(di, dj int, ds [2]int) bool {
	return uint(di) < uint(ds[0]) && uint(dj) < uint(ds[1])
}

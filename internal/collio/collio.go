// Package collio implements collective two-phase I/O in the PASSION
// style: instead of every processor issuing many small requests against
// the distribution it *wants*, all processors first access their local
// array files in the distribution the files *have* — one large contiguous
// run per round — and then exchange elements in memory through
// mp.AllToAllOwned. Disk requests are traded for messages, which is the
// right trade whenever the per-request overhead dominates (Eqs. 3-6 of
// the paper: 15ms per request on the Touchstone Delta vs 80us per
// message).
//
// The sender routes runs, not elements, whenever the index map lets it:
// under the identity and the transpose — the only maps the compiler emits
// — a column of a regularly mapped array falls into a few runs of rows
// with one destination owner and a linear index affine in the row, so the
// routing tables are consulted once per run (see Redistribute). The wire
// still carries (linear index, value) pairs, the same ones in the same
// order as routing element by element produces: what a message holds is
// what the simulated machine is charged for.
//
// The layer offers three destination write strategies so the compiler's
// cost model can choose per statement:
//
//   - Direct: write every conforming run of received elements as its own
//     request (cheapest when the runs are long, e.g. a same-distribution
//     copy).
//   - Sieved: cover the received runs with one span and read-modify-write
//     it (two requests per round, at the price of moving the span twice).
//   - TwoPhase: stage received elements per destination window and flush
//     each window with one contiguous write (plus one contiguous RMW
//     read when the window is only partially produced) — requests become
//     independent of how fragmented the access is.
package collio

import (
	"fmt"
	"math/bits"
	"slices"

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

// String returns the method name as used in plan hints.
func (m Method) String() string {
	switch m {
	case Direct:
		return "direct"
	case Sieved:
		return "sieved"
	case TwoPhase:
		return "two-phase"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod maps a plan hint back to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "direct":
		return Direct, nil
	case "sieved":
		return Sieved, nil
	case "two-phase", "twophase":
		return TwoPhase, nil
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

// SrcSlabWidth returns the conforming-partition slab width in columns for
// phase 1: each round reads one contiguous run of full local columns,
// sized to half the memory budget (the other half is left for staging
// and shuffle buffers).
func SrcSlabWidth(memElems, rows, cols int) int {
	return clampWidth(memElems/2, rows, cols)
}

// WindowWidth returns the destination window width in columns for the
// two-phase writeback: a quarter of the memory budget, so a window's
// staging buffer and its spilled pairs fit alongside a phase-1 slab.
func WindowWidth(memElems, rows, cols int) int {
	return clampWidth(memElems/4, rows, cols)
}

func clampWidth(budget, rows, cols int) int {
	if rows <= 0 || cols <= 0 {
		return 1
	}
	w := budget / rows
	if w < 1 {
		w = 1
	}
	if w > cols {
		w = cols
	}
	return w
}

// IndexMap says where a redistribution puts each element: the global
// index pair of the destination at which source element (gi, gj) lands.
// The zero value is the identity; Transpose swaps the indices; Func wraps
// any other map. Redistribute inspects the kind: the two structured maps
// are routed by runs, a func element by element.
type IndexMap struct {
	transpose bool
	fn        func(gi, gj int) (di, dj int)
}

// Transpose is the index map (gi, gj) -> (gj, gi).
func Transpose() IndexMap { return IndexMap{transpose: true} }

// Func is the index map given by an arbitrary function; nil is the
// identity.
func Func(fn func(gi, gj int) (di, dj int)) IndexMap { return IndexMap{fn: fn} }

// at applies the map to one global index pair.
func (m IndexMap) at(gi, gj int) (di, dj int) {
	switch {
	case m.fn != nil:
		return m.fn(gi, gj)
	case m.transpose:
		return gj, gi
	}
	return gi, gj
}

func (m IndexMap) identity() bool { return m.fn == nil && !m.transpose }

// sweptDim is the destination dimension a structured map's index moves
// along as the source row does; the column's index lies in the other.
func (m IndexMap) sweptDim() int {
	if m.transpose {
		return 1
	}
	return 0
}

// Redistribute copies the distributed array described by src into the one
// described by dst, storing every source element where the index map m
// puts it (under the identity the global shapes must agree). All ranks
// must call it collectively with the same memElems, tag, map and method.
//
// Phase 1 is the same for every method: each rank reads its LAF in
// conforming column slabs — one contiguous request per round — and
// routes each element to its destination owner as a (linear index,
// value) pair; the buckets, one per owner, are handed to
// mp.AllToAllOwned, which moves them without a copy. The method only
// decides how the receiving rank applies the incoming pairs to its own
// LAF.
//
// Both mappings are regular, so the routing is inspected once and
// executed by lookup (the mappings' dist.Tables2). Under the identity and
// the transpose the unit of routing is a run: the rank's local rows are
// cut once per call into maximal segments whose destination index along
// the swept dimension has one owner and consecutive local indices
// (segments), and each column then sends every segment to one bucket with
// a linear index affine in the row — one run per owner under BLOCK, not
// one lookup per element. An arbitrary func is routed element by element
// into the same buckets. Either way the wire carries the same pairs in
// the same order: a run-encoded message would be shorter, and would move
// the simulated clock with it.
//
// An index map that leaves the destination's global shape is an error
// naming the element. The corners of the source shape are tried before
// the first collective, so a structured map between mismatched shapes
// (or any monotone func) fails on every rank at once; a func is checked
// again at every element.
func Redistribute(p *mp.Proc, src, dst Side, memElems, tag int, m IndexMap, method Method) error {
	return redistribute(p, src, dst, memElems, tag, m, method, p.AllToAllOwned)
}

// redistribute is Redistribute with the shuffle passed in, so the
// wire-level witness test can see every round's payloads on their way to
// p.AllToAllOwned.
func redistribute(p *mp.Proc, src, dst Side, memElems, tag int, m IndexMap, method Method,
	exchange func(tag int, parts [][]float64) [][]float64) error {
	if src.Rank != p.Rank() || dst.Rank != p.Rank() {
		return fmt.Errorf("collio: redistribute on rank %d given sides of ranks %d and %d",
			p.Rank(), src.Rank, dst.Rank)
	}
	if len(src.Map.Dims) != 2 || len(dst.Map.Dims) != 2 {
		return fmt.Errorf("collio: redistribute wants two-dimensional arrays, got global shapes %v and %v",
			src.Map.GlobalShape(), dst.Map.GlobalShape())
	}
	// Arrays, not GlobalShape's slices: an error message boxes them, and a
	// boxed slice would put both on the heap in every call.
	ss := [2]int{src.Map.Dims[0].Extent, src.Map.Dims[1].Extent}
	ds := [2]int{dst.Map.Dims[0].Extent, dst.Map.Dims[1].Extent}
	if m.identity() && ss != ds {
		return fmt.Errorf("collio: redistribute between different global shapes %v and %v", ss, ds)
	}
	size := p.Size()
	rowG, colG := src.Map.LocalGlobals(src.Rank)
	dstT := dst.Map.Tables2()
	if len(rowG) != src.Rows || len(colG) != src.Cols {
		return fmt.Errorf("collio: source side of rank %d is %dx%d but its mapping gives the rank %dx%d",
			src.Rank, src.Rows, src.Cols, len(rowG), len(colG))
	}
	if len(dstT.Rows) > size {
		return fmt.Errorf("collio: destination mapping spans %d processors on a machine of %d", len(dstT.Rows), size)
	}
	if ss[0] > 0 && ss[1] > 0 {
		for _, gi := range [2]int{0, ss[0] - 1} {
			for _, gj := range [2]int{0, ss[1] - 1} {
				if di, dj := m.at(gi, gj); !inShape(di, dj, ds) {
					return outsideShape(gi, gj, di, dj, ds)
				}
			}
		}
	}
	var segs []seg
	if m.fn == nil {
		segs = segments(rowG, &dstT.Dim[m.sweptDim()])
	}

	w := SrcSlabWidth(memElems, src.Rows, src.Cols)
	myRounds := 0
	if src.Rows > 0 && src.Cols > 0 {
		myRounds = (src.Cols + w - 1) / w
	}
	// Ranks may own different column counts; everyone participates in the
	// collective for the maximum round count.
	rm := p.AllReduceMax(tag, []float64{float64(myRounds)})
	rounds := int(rm[0])
	mp.ReleaseBuf(rm)

	recv, err := newReceiver(dst, memElems, method)
	if err != nil {
		return err
	}
	defer recv.cleanup()

	// phase brackets each stage of a round with an overlay span, so the
	// exported timeline shows where a redistribution's time goes without
	// touching the reconciled leaf spans recorded underneath.
	tr, clock := p.Tracer(), p.Clock()
	phase := func(label string, start float64) {
		if tr == nil {
			return
		}
		if now := clock.Seconds(); now > start {
			tr.Emit(trace.Span{Kind: trace.KindPhase, Label: label, Start: start, Dur: now - start})
		}
	}

	buf := bufpool.GetF64(src.Rows * w)
	defer bufpool.PutF64(buf)
	if src.LAF.Disk().Phantom() {
		// Phantom reads leave the slab untouched; the pooled buffer must
		// start out zeroed like the make it replaced.
		clear(buf)
	}
	// parts holds the round's buckets, arena buffers one per owner. The
	// exchange takes them all, so every round starts from nil and re-takes
	// each bucket at the length the round before sent (sent): after round
	// 0 has grown them by doubling nothing is copied to grow again. What
	// an error or a panic finds still in parts goes back on the way out.
	parts := make([][]float64, size)
	defer releaseBuckets(parts)
	sent := make([]int, size)
	for round := 0; round < rounds; round++ {
		t0 := clock.Seconds()
		if round < myRounds {
			for q, n := range sent {
				if n > 0 {
					parts[q] = bufpool.GetF64(n)[:0]
				}
			}
			c0 := round * w
			cw := src.Cols - c0
			if cw > w {
				cw = w
			}
			data := buf[:src.Rows*cw]
			sec, err := src.LAF.ReadChunks([]iosim.Chunk{{Off: int64(c0) * int64(src.Rows), Len: len(data)}}, data)
			if err != nil {
				return err
			}
			src.charge("io-read", sec)
			if m.fn == nil {
				routeRuns(parts, data, src.Rows, colG[c0:c0+cw], segs, dstT, m.transpose)
			} else if err := routeElems(parts, data, rowG, colG[c0:c0+cw], dstT, m.fn, ds); err != nil {
				return err
			}
		}
		for q, b := range parts {
			sent[q] = len(b)
		}
		phase("collio:read", t0)
		t1 := clock.Seconds()
		incoming := exchange(tag, parts)
		phase("collio:shuffle", t1)
		t2 := clock.Seconds()
		if err := absorbRound(recv, incoming); err != nil {
			return err
		}
		phase("collio:write", t2)
	}
	tEnd := clock.Seconds()
	if err := recv.finish(); err != nil {
		return err
	}
	phase("collio:write", tEnd)
	return nil
}

// inShape reports whether (di, dj) lies in the global shape ds; one
// unsigned compare per index also rejects negatives.
func inShape(di, dj int, ds [2]int) bool {
	return uint(di) < uint(ds[0]) && uint(dj) < uint(ds[1])
}

func outsideShape(gi, gj, di, dj int, ds [2]int) error {
	return fmt.Errorf("collio: transform maps (gi,gj)=(%d,%d) to (%d,%d) outside destination shape %v",
		gi, gj, di, dj, ds)
}

// seg is a run of a rank's local rows [li0, li0+n) whose destination
// index along the swept dimension has one owner contribution (own, as in
// dist.DimTable.Own) and the consecutive local indices loc0, loc0+1, ….
type seg struct {
	li0, n, own, loc0 int32
}

// segments cuts the local rows, given by their global indices, into the
// maximal runs of the swept destination dimension: one per owner under
// BLOCK, one per block under CYCLIC(k), one per row under CYCLIC.
func segments(rowG []int32, swept *dist.DimTable) []seg {
	cut := func(li int) bool {
		g, prev := rowG[li], rowG[li-1]
		return swept.Own[g] != swept.Own[prev] || swept.Loc[g] != swept.Loc[prev]+1
	}
	n := 0
	for li := range rowG {
		if li == 0 || cut(li) {
			n++
		}
	}
	segs := make([]seg, 0, n)
	for li, g := range rowG {
		if li == 0 || cut(li) {
			segs = append(segs, seg{li0: int32(li), own: swept.Own[g], loc0: swept.Loc[g]})
		}
		segs[len(segs)-1].n++
	}
	return segs
}

// routeRuns routes one slab of full local columns (data, rows elements a
// column, global column indices colG) under a structured map: every
// segment of every column is one reservation in its owner's bucket and
// one branch-free fill, the linear index stepping by 1 under the identity
// and by the owner's row count under the transpose. It appends exactly
// the pairs routeElems would, in the same order.
func routeRuns(parts [][]float64, data []float64, rows int, colG []int32, segs []seg, dstT *dist.Tables2, transpose bool) {
	fixed := &dstT.Dim[1]
	if transpose {
		fixed = &dstT.Dim[0]
	}
	// Destination linear indices use the owner's local row count, which
	// under ragged block sizes differs between ranks.
	rowsOf := dstT.Rows
	for lj, gj := range colG {
		col := data[lj*rows : (lj+1)*rows]
		fown, floc := fixed.Own[gj], int(fixed.Loc[gj])
		for _, s := range segs {
			owner := s.own + fown
			dstRows := int(rowsOf[owner])
			lin, step := floc*dstRows+int(s.loc0), 1
			if transpose {
				lin, step = int(s.loc0)*dstRows+floc, dstRows
			}
			b := parts[owner]
			k := len(b)
			if k+2*int(s.n) > cap(b) {
				b = growBucket(b, k+2*int(s.n))
			}
			b = b[:k+2*int(s.n)]
			parts[owner] = b
			fillRun(b[k:], col[s.li0:s.li0+s.n], lin, step)
		}
	}
}

// fillRun writes the pairs (lin + t*step, vals[t]) into out. The index is
// stepped in float64, which is exact for every index a file can have.
func fillRun(out, vals []float64, lin, step int) {
	out = out[:2*len(vals)]
	idx, d := float64(lin), float64(step)
	for t, v := range vals {
		out[2*t], out[2*t+1] = idx, v
		idx += d
	}
}

// routeElems is routeRuns for an arbitrary index function: one call, one
// range check and one table lookup per element.
func routeElems(parts [][]float64, data []float64, rowG, colG []int32, dstT *dist.Tables2,
	fn func(gi, gj int) (di, dj int), ds [2]int) error {
	own0, loc0 := dstT.Dim[0].Own, dstT.Dim[0].Loc
	own1, loc1 := dstT.Dim[1].Own, dstT.Dim[1].Loc
	rowsOf := dstT.Rows
	for lj, gj := range colG {
		col := data[lj*len(rowG) : (lj+1)*len(rowG)]
		for li, gi := range rowG {
			di, dj := fn(int(gi), int(gj))
			if !inShape(di, dj, ds) {
				return outsideShape(int(gi), int(gj), di, dj, ds)
			}
			owner := own0[di] + own1[dj]
			lin := int(loc1[dj])*int(rowsOf[owner]) + int(loc0[di])
			parts[owner] = appendPair(parts[owner], float64(lin), col[li])
		}
	}
	return nil
}

// appendPair appends one (index, value) pair to an arena-backed bucket.
// The full-bucket path is growBucket's so that this one inlines into the
// per-element loops.
func appendPair(b []float64, idx, val float64) []float64 {
	if len(b)+2 > cap(b) {
		b = growBucket(b, len(b)+2)
	}
	return append(b, idx, val) // within capacity: never the heap's growth
}

// growBucket moves a full bucket to an arena buffer of twice its
// capacity, or of need elements if that is more.
func growBucket(b []float64, need int) []float64 {
	grown := bufpool.GetF64(max(2*cap(b), need))[:len(b)]
	copy(grown, b)
	bufpool.PutF64(b)
	return grown
}

// releaseBuckets returns every bucket to the arena.
func releaseBuckets(buckets [][]float64) {
	for i, b := range buckets {
		bufpool.PutF64(b)
		buckets[i] = nil
	}
}

// absorbRound applies one round's payloads and returns them to the arena
// — all of them, whether the round could be applied, was malformed, or
// died under a kill part-way through a write.
func absorbRound(recv receiver, incoming [][]float64) error {
	defer func() {
		for _, in := range incoming {
			mp.ReleaseBuf(in)
		}
	}()
	if err := checkPayloads(incoming); err != nil {
		return err
	}
	return recv.absorb(incoming)
}

// checkPayloads rejects a round in which some peer's payload is not a
// sequence of index/value pairs, before any of it is applied.
func checkPayloads(incoming [][]float64) error {
	for _, in := range incoming {
		if len(in)%2 != 0 {
			return fmt.Errorf("collio: redistribute payload of %d values is not index/value pairs", len(in))
		}
	}
	return nil
}

// receiver applies each round's incoming payloads — per source rank, a
// flat sequence of (linear index, value) floats — to the destination LAF
// under one of the write strategies. absorb only reads the payloads; the
// caller releases them.
type receiver interface {
	absorb(incoming [][]float64) error
	finish() error
	cleanup()
}

func newReceiver(dst Side, memElems int, method Method) (receiver, error) {
	switch method {
	case Direct:
		return &runReceiver{dst: dst}, nil
	case Sieved:
		return &runReceiver{dst: dst, sieve: true}, nil
	case TwoPhase:
		return newTwoPhaseReceiver(dst, memElems)
	}
	return nil, fmt.Errorf("collio: unknown method %d", int(method))
}

// runReceiver writes each round's pairs immediately, either run by run
// (Direct) or through a spanning read-modify-write (Sieved). The
// coalesce scratch is reused across rounds.
type runReceiver struct {
	dst    Side
	sieve  bool
	keys   []uint64
	flat   []float64
	chunks []iosim.Chunk
	vals   []float64
}

func (r *runReceiver) absorb(incoming [][]float64) error {
	if err := r.coalescePairs(incoming); err != nil {
		return err
	}
	if len(r.chunks) == 0 {
		return nil
	}
	var sec float64
	var err error
	if r.sieve {
		sec, err = AggregateWrite(r.dst.LAF, r.chunks, r.vals)
	} else {
		sec, err = r.dst.LAF.WriteChunks(r.chunks, r.vals)
	}
	if err != nil {
		return err
	}
	r.dst.charge("io-write", sec)
	return nil
}

func (r *runReceiver) finish() error { return nil }
func (r *runReceiver) cleanup()      {}

// coalescePairs orders the round's pairs by destination index and merges
// consecutive indices into contiguous chunks, leaving the chunks in
// r.chunks and the values packed in chunk order in r.vals. Duplicate
// indices are kept in arrival order — source rank, then position in its
// payload — and each starts a fresh one-element chunk, so the last writer
// wins as it would element by element.
//
// Each pair becomes one integer, its index above its arrival number, so
// a plain ascending sort of the keys is the stable sort by index.
func (r *runReceiver) coalescePairs(incoming [][]float64) error {
	r.keys, r.flat, r.chunks, r.vals = r.keys[:0], r.flat[:0], r.chunks[:0], r.vals[:0]
	n := 0
	for _, in := range incoming {
		n += len(in) / 2
	}
	local := r.dst.Rows * r.dst.Cols
	seqBits := bits.Len(uint(n))
	if bits.Len(uint(local))+seqBits > 64 {
		return fmt.Errorf("collio: %d pairs into a local array of %d elements are too many to order in one round", n, local)
	}
	for _, in := range incoming {
		for i := 0; i+1 < len(in); i += 2 {
			lin := int(in[i])
			if uint(lin) >= uint(local) {
				return fmt.Errorf("collio: destination index %d outside local array of %d elements", lin, local)
			}
			r.keys = append(r.keys, uint64(lin)<<seqBits|uint64(len(r.flat)))
			r.flat = append(r.flat, in[i+1])
		}
	}
	slices.Sort(r.keys)
	seqMask := uint64(1)<<seqBits - 1
	next := int64(-1) // the index that would extend the current chunk
	for _, k := range r.keys {
		lin := int64(k >> seqBits)
		r.vals = append(r.vals, r.flat[k&seqMask])
		if lin == next {
			r.chunks[len(r.chunks)-1].Len++
		} else {
			r.chunks = append(r.chunks, iosim.Chunk{Off: lin, Len: 1})
		}
		next = lin + 1
	}
	return nil
}

// twoPhaseReceiver stages incoming pairs per destination window (a run
// of local columns sized by WindowWidth) and flushes each window with a
// single contiguous write at the end. When twice the local array fits in
// the memory budget the pairs stay in memory; otherwise they spill to a
// scratch file on the same disk, appended contiguously per window, which
// keeps every scratch access a single-request transfer too.
//
// The receiver owns its in-memory buckets (bufs) or its scratch file from
// newTwoPhaseReceiver to cleanup, which returns the buckets to the arena
// and closes and removes the scratch file on every exit of the
// redistribution. A spilling round and a window's flush only borrow from
// the arena — the round's sorted pairs, a window's pairs and staging —
// and return it before they are done.
type twoPhaseReceiver struct {
	dst  Side
	winW int
	nWin int
	// winElems is the element count of a full window: local linear index
	// lin lies in window lin/winElems.
	winElems int
	inMem    bool
	counts   []int // pairs received per window
	base     []int64
	elems    []int
	bufs     [][]float64 // in-memory regime: pair floats per window (arena)

	scratch     *iosim.LAF
	scratchName string
	off         []int64 // scratch region start per window, in floats
	spilled     []int64 // floats appended so far per window
	at          []int   // the round's fill position per window in spill's buffer
}

func newTwoPhaseReceiver(dst Side, memElems int) (*twoPhaseReceiver, error) {
	rows, cols := dst.Rows, dst.Cols
	local := rows * cols
	r := &twoPhaseReceiver{dst: dst}
	r.winW = WindowWidth(memElems, rows, cols)
	r.winElems = rows * r.winW
	if local > 0 {
		r.nWin = (cols + r.winW - 1) / r.winW
	}
	r.inMem = local == 0 || 2*local <= memElems
	r.counts = make([]int, r.nWin)
	r.base = make([]int64, r.nWin)
	r.elems = make([]int, r.nWin)
	r.off = make([]int64, r.nWin)
	var acc int64
	for wdx := 0; wdx < r.nWin; wdx++ {
		c0 := wdx * r.winW
		cw := cols - c0
		if cw > r.winW {
			cw = r.winW
		}
		r.base[wdx] = int64(c0) * int64(rows)
		r.elems[wdx] = rows * cw
		r.off[wdx] = acc
		acc += 2 * int64(rows*cw)
	}
	if r.inMem {
		r.bufs = make([][]float64, r.nWin)
		return r, nil
	}
	r.spilled = make([]int64, r.nWin)
	r.at = make([]int, r.nWin)
	r.scratchName = fmt.Sprintf("%s.p%d.collio.scratch", dst.Map.Name, dst.Rank)
	scratch, err := dst.LAF.Disk().CreateLAF(r.scratchName, acc)
	if err != nil {
		// A create that failed at sizing the file leaves it behind, empty.
		dst.LAF.Disk().RemoveLAF(r.scratchName)
		return nil, err
	}
	r.scratch = scratch
	return r, nil
}

func (r *twoPhaseReceiver) absorb(incoming [][]float64) error {
	if !r.inMem {
		return r.spill(incoming)
	}
	// In memory the pairs go straight to their window's bucket. A pair
	// often falls into the window of the one before (always, inside a run
	// of consecutive indices), so the window is looked up only on leaving
	// [lo, hi); the empty initial range sends the first pair through the
	// lookup and its checks.
	wdx, lo, hi := 0, 0, 0
	for _, in := range incoming {
		for i := 0; i+1 < len(in); i += 2 {
			lin := int(in[i])
			if lin < lo || lin >= hi {
				var err error
				if wdx, err = r.windowOf(lin); err != nil {
					return err
				}
				lo, hi = wdx*r.winElems, (wdx+1)*r.winElems
			}
			r.bufs[wdx] = appendPair(r.bufs[wdx], in[i], in[i+1])
			r.counts[wdx]++
		}
	}
	return nil
}

// windowOf returns the window holding local linear index lin.
func (r *twoPhaseReceiver) windowOf(lin int) (int, error) {
	wdx := 0
	if r.winElems > 0 {
		wdx = lin / r.winElems
	}
	if lin < 0 || wdx >= r.nWin {
		return 0, fmt.Errorf("collio: destination index %d outside local array of %d elements",
			lin, r.dst.Rows*r.dst.Cols)
	}
	return wdx, nil
}

// spill appends the round's pairs to the scratch file, one contiguous
// request per window that received any. The pairs are first sorted by
// window into one exactly sized arena buffer: a counting pass gives each
// window its offset in it, a second pass places every pair, and each
// window's stretch is then written where its scratch region has got to.
func (r *twoPhaseReceiver) spill(incoming [][]float64) error {
	winElems := r.winElems
	at := r.at
	clear(at)
	// A pair often falls into the window of the one before (always, inside
	// a run of consecutive indices), so a window's tally stays in n — and,
	// placing, its fill position in k — until a pair leaves [lo, hi); the
	// empty initial range sends the first pair through the lookup and its
	// checks.
	total := 0
	wdx, lo, hi, n := 0, 0, 0, 0
	for _, in := range incoming {
		total += len(in)
		for i := 0; i+1 < len(in); i += 2 {
			lin := int(in[i])
			if lin < lo || lin >= hi {
				at[wdx] += n
				n = 0
				var err error
				if wdx, err = r.windowOf(lin); err != nil {
					return err
				}
				lo, hi = wdx*winElems, (wdx+1)*winElems
			}
			n += 2
		}
	}
	at[wdx] += n
	// Counts become start offsets; every index was checked above.
	sum := 0
	for w, n := range at {
		at[w] = sum
		sum += n
	}
	round := bufpool.GetF64(total)
	defer bufpool.PutF64(round)
	wdx, lo, hi = 0, 0, 0
	k := at[0]
	for _, in := range incoming {
		for i := 0; i+1 < len(in); i += 2 {
			lin := int(in[i])
			if lin < lo || lin >= hi {
				at[wdx] = k
				wdx = lin / winElems
				lo, hi = wdx*winElems, (wdx+1)*winElems
				k = at[wdx]
			}
			round[k], round[k+1] = in[i], in[i+1]
			k += 2
		}
	}
	at[wdx] = k
	start := 0
	for wdx, end := range at {
		fl := round[start:end]
		start = end
		if len(fl) == 0 {
			continue
		}
		if r.spilled[wdx]+int64(len(fl)) > 2*int64(r.elems[wdx]) {
			return fmt.Errorf("collio: window %d received more elements than it holds (non-injective transform?)", wdx)
		}
		sec, err := r.scratch.WriteChunks([]iosim.Chunk{{Off: r.off[wdx] + r.spilled[wdx], Len: len(fl)}}, fl)
		if err != nil {
			return err
		}
		r.dst.charge("io-write", sec)
		r.spilled[wdx] += int64(len(fl))
		r.counts[wdx] += len(fl) / 2
	}
	return nil
}

func (r *twoPhaseReceiver) finish() error {
	for wdx := 0; wdx < r.nWin; wdx++ {
		if r.elems[wdx] == 0 {
			continue
		}
		if err := r.flush(wdx); err != nil {
			return err
		}
	}
	return nil
}

// flush scatters window wdx's pairs into a staging buffer and writes the
// window back with one request. What it borrows from the arena it returns
// on every way out, a kill inside one of its transfers included.
func (r *twoPhaseReceiver) flush(wdx int) error {
	var pairFloats []float64
	if r.inMem {
		pairFloats = r.bufs[wdx]
	} else if r.spilled[wdx] > 0 {
		pairFloats = bufpool.GetF64(int(r.spilled[wdx]))
		defer bufpool.PutF64(pairFloats)
		sec, err := r.scratch.ReadChunks([]iosim.Chunk{{Off: r.off[wdx], Len: len(pairFloats)}}, pairFloats)
		if err != nil {
			return err
		}
		r.dst.charge("io-read", sec)
	}
	// Cleared, never merely overwritten: with duplicate destination
	// indices the received count can reach the window size without
	// covering every element, so untouched elements must read as the
	// zeros make used to provide.
	staging := bufpool.GetF64(r.elems[wdx])
	defer bufpool.PutF64(staging)
	clear(staging)
	win := []iosim.Chunk{{Off: r.base[wdx], Len: r.elems[wdx]}}
	if r.counts[wdx] < r.elems[wdx] {
		// The window was only partially produced: pre-read it so the
		// untouched elements survive the full-window writeback. One
		// extra contiguous request.
		sec, err := r.dst.LAF.ReadChunks(win, staging)
		if err != nil {
			return err
		}
		r.dst.charge("io-read", sec)
	}
	// In phantom (accounting-only) mode scratch reads return zeros, not
	// the indices written, so the scatter must be skipped; every request
	// is still issued and counted identically.
	if !r.dst.LAF.Disk().Phantom() {
		for i := 0; i+1 < len(pairFloats); i += 2 {
			lin := int(pairFloats[i]) - int(r.base[wdx])
			if lin < 0 || lin >= len(staging) {
				return fmt.Errorf("collio: staged index %d outside window %d", int(pairFloats[i]), wdx)
			}
			staging[lin] = pairFloats[i+1]
		}
	}
	sec, err := r.dst.LAF.WriteChunks(win, staging)
	if err != nil {
		return err
	}
	r.dst.charge("io-write", sec)
	return nil
}

func (r *twoPhaseReceiver) cleanup() {
	releaseBuckets(r.bufs)
	if r.scratch == nil {
		return
	}
	r.scratch.Close()
	r.dst.LAF.Disk().RemoveLAF(r.scratchName)
	r.scratch = nil
}

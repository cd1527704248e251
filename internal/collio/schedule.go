package collio

import (
	"fmt"
	"slices"
	"sync"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
)

// block is g runs of n values of a source rank's round k going to one
// owner. Value t of run i is the round's slab (full local columns,
// column-major) at offset off + i·offStep + t·doff and lands at the
// owner's local element (col + i·colStep + t·dcol, row + i·rowStep +
// t·drow); dcol and colStep are each one of -1, 0, 1, and at most one of
// them moves a block of more than one value per run across columns, so a
// window of columns takes a rectangle of it. A message is the values of
// its blocks back to back, run by run, in schedule order. Only structured
// maps, which are injective, build blocks of g > 1 or doff > 1; a func's
// inspector cuts one-run blocks of consecutive source values. The fields
// are int32, half the size of int, because a func's inspector keeps a
// block per run.
type block struct {
	k, off, n, col, row, dcol, drow    int32
	g, doff, offStep, colStep, rowStep int32
}

// size is the number of values the block carries.
func (b *block) size() int { return int(b.g) * int(b.n) }

// lin returns the block's first linear index in a local array of rows
// rows, and its steps from one run to the next and from one value to the
// next.
func (b *block) lin(rows int) (lin, istep, tstep int) {
	return int(b.col)*rows + int(b.row), int(b.colStep)*rows + int(b.rowStep), int(b.dcol)*rows + int(b.drow)
}

// part returns the runs [i0, i1) of b and the positions [t0, t1) of each
// whose columns lie in [clo, chi).
func (b *block) part(clo, chi int) (i0, i1, t0, t1 int) {
	if b.colStep == 0 {
		if t0, t1 = stretch(int(b.col), int(b.dcol), int(b.n), clo, chi); t0 == t1 {
			return 0, 0, 0, 0
		}
		return 0, int(b.g), t0, t1
	}
	i0, i1 = stretch(int(b.col), int(b.colStep), int(b.g), clo, chi)
	return i0, i1, 0, int(b.n)
}

// stretch returns the positions [t0, t1) of the n columns col + t·d,
// d one of -1, 0, 1, that lie in [clo, chi): one stretch, the columns
// being monotone.
func stretch(col, d, n, clo, chi int) (t0, t1 int) {
	switch d {
	case 0:
		if col < clo || col >= chi {
			return 0, 0
		}
		return 0, n
	case 1:
		t0, t1 = clo-col, chi-col
	default:
		t0, t1 = col-chi+1, col-clo+1
	}
	return min(max(t0, 0), n), min(max(t1, 0), n)
}

// extends adds r, one run, to b, a block of g > 1 runs, if r continues
// b's lattice. Both come from one structured schedule, so they step alike
// within a run (dcol, drow).
func (b *block) extends(r *block) bool {
	if r.off != b.off+b.g*b.offStep || r.col != b.col+b.g*b.colStep || r.row != b.row+b.g*b.rowStep || r.n != b.n || r.doff != b.doff {
		return false
	}
	b.g++
	return true
}

// pairs makes the one-run block b and r a block of two runs if every
// window takes a rectangle of it. It is apart from extends so that each
// inlines.
func (b *block) pairs(r *block) bool {
	dc := r.col - b.col
	if r.n != b.n || r.doff != b.doff || dc < -1 || dc > 1 || dc != 0 && b.dcol != 0 && b.n > 1 {
		return false
	}
	b.g, b.offStep, b.colStep, b.rowStep = 2, r.off-b.off, dc, r.row-b.row
	return true
}

// seg is n of a rank's local rows li0, li0+step, … whose destination
// index along the swept dimension has one owner contribution (own, as in
// dist.DimTable.Own) and the consecutive local indices loc0, loc0+1, ….
type seg struct {
	li0, n, own, loc0, step int32
}

// segments appends the cut of the local rows (by global index) into the
// maximal runs of the swept destination dimension: one per owner under
// BLOCK, per block under CYCLIC(k), per row under CYCLIC.
func segments(segs []seg, rowG []int32, swept *dist.DimTable) []seg {
	for li, g := range rowG {
		if li == 0 || swept.Own[g] != swept.Own[rowG[li-1]] || swept.Loc[g] != swept.Loc[rowG[li-1]]+1 {
			segs = append(segs, seg{li0: int32(li), own: swept.Own[g], loc0: swept.Loc[g], step: 1})
		}
		segs[len(segs)-1].n++
	}
	return segs
}

// strided merges, in place, single-row segments of one owner contribution
// that are evenly spaced in the local rows and land on consecutive local
// indices — what a CYCLIC swept dimension cuts — into one segment with a
// step, and returns the merged list. The segments come ordered by owner
// contribution, row order within one.
func strided(segs []seg) []seg {
	out := segs[:0]
	for _, sg := range segs {
		if len(out) > 0 {
			a := &out[len(out)-1]
			if a.own == sg.own && sg.n == 1 && sg.loc0 == a.loc0+a.n && (a.n == 1 || sg.li0 == a.li0+a.n*a.step) {
				if a.n == 1 {
					a.step = sg.li0 - a.li0
				}
				a.n++
				continue
			}
		}
		out = append(out, sg)
	}
	return out
}

// schedule says, for every source rank q, round k and destination owner,
// which blocks of q's slab go to the owner and where they land; the sender
// fills its buckets and the receivers read their payloads by it. Under the
// identity and the transpose it follows from the two mappings; under a
// func it is what the inspector measured and exchanged: this rank's runs
// to each owner (sent) and each source rank's to this one (got), each a
// one-run block.
type schedule struct {
	me         int
	dstT       *dist.Tables2
	rows, cols int      // this rank's destination local shape
	srcs       []source // one per rank of the machine
	// fixed is the destination dimension a source column fixes under a
	// structured map, its rows sweeping the other; nil under a func.
	fixed     *dist.DimTable
	transpose bool
	sent, got [][]block
	kept
}

// kept is the storage a schedule keeps while pooled, so that a
// redistribution appends into the capacity the last one left: segments,
// the last blocks computed, the two-phase receiver's list of blocks to
// this rank, and the run receiver's sort keys (twice: a counting pass
// moves them from one to the other), bucket counts (the two-phase
// receiver's per-window counts), arrivals, values and chunks. Every user
// starts its slices at length zero.
type kept struct {
	segBuf       []seg
	out, list    []block
	keys, sorted []uint64
	counts       []int
	flat, vals   []float64
	chunks       []iosim.Chunk
}

// source is one source rank: local globals, slab width, round count and,
// under a structured map, its rows' segments ordered by owner
// contribution (row order within one).
type source struct {
	rowG, colG []int32
	w, rounds  int
	segs       []seg
}

var schedules = sync.Pool{New: func() any { return new(schedule) }}

func newSchedule(me, size int, src *dist.Array, dstT *dist.Tables2, dst Side, memElems int, m IndexMap) *schedule {
	s := schedules.Get().(*schedule)
	*s = schedule{me: me, dstT: dstT, rows: dst.Rows, cols: dst.Cols, transpose: m.transpose,
		srcs: slices.Grow(s.srcs[:0], size)[:size], kept: s.kept}
	s.segBuf = s.segBuf[:0]
	swept := &dstT.Dim[0]
	if m.fn == nil {
		s.fixed = &dstT.Dim[1]
		if m.transpose {
			s.fixed, swept = &dstT.Dim[0], &dstT.Dim[1]
		}
	}
	for q := range s.srcs {
		c, prev := &s.srcs[q], &s.srcs[max(q-1, 0)]
		*c = source{}
		if q < src.Procs() {
			c.rowG, c.colG = src.LocalGlobals(q)
		}
		c.w = SrcSlabWidth(memElems, len(c.rowG), len(c.colG))
		if len(c.rowG) > 0 {
			c.rounds = (len(c.colG) + c.w - 1) / c.w
		}
		switch {
		case s.fixed == nil:
		case q > 0 && len(c.rowG) == len(prev.rowG) && (len(c.rowG) == 0 || &c.rowG[0] == &prev.rowG[0]):
			c.segs = prev.segs // ranks of one row coordinate
		default:
			at := len(s.segBuf)
			s.segBuf = segments(s.segBuf, c.rowG, swept)
			slices.SortStableFunc(s.segBuf[at:], func(a, b seg) int { return int(a.own - b.own) })
			c.segs = strided(s.segBuf[at:])
			s.segBuf = s.segBuf[:at+len(c.segs)]
		}
	}
	return s
}

// release returns the schedule to the pool, storage only.
func (s *schedule) release() {
	clear(s.srcs)
	*s = schedule{srcs: s.srcs[:0], kept: s.kept}
	schedules.Put(s)
}

// blocks returns the blocks q sends owner in round k, in bucket order:
// column by column, down each column. The slice is valid until the next
// call.
func (s *schedule) blocks(q, k, owner int) []block {
	if s.fixed == nil {
		tab := s.got[q]
		if q == s.me {
			tab = s.sent[owner]
		}
		byRound := func(b block, k int) int { return int(b.k) - k }
		lo, _ := slices.BinarySearchFunc(tab, k, byRound)
		hi, _ := slices.BinarySearchFunc(tab, k+1, byRound)
		return tab[lo:hi]
	}
	out, src := s.out[:0], &s.srcs[q]
	if k >= src.rounds || owner >= len(s.dstT.Rows) {
		return out
	}
	want, lo, hi := int32(-1), 0, 0
	for lj, gj := range src.colG[k*src.w : min((k+1)*src.w, len(src.colG))] {
		// The segments whose owner contribution adds up with the column's
		// to owner: one under BLOCK and under CYCLIC.
		if o := int32(owner) - s.fixed.Own[gj]; o != want {
			want = o
			lo, _ = slices.BinarySearchFunc(src.segs, want, func(sg seg, o int32) int { return int(sg.own - o) })
			for hi = lo; hi < len(src.segs) && src.segs[hi].own == want; hi++ {
			}
		}
		// The column fixes one destination index, its segments sweep the
		// other. Each is one run. A column's only run joins the last
		// block if it continues it, so the columns of a round to one
		// owner become one block; where a column has several, as under
		// CYCLIC(k), their lattice breaks at the next column anyway.
		// Filled in place: a block built aside costs a stalled load.
		fixed, off, join := s.fixed.Loc[gj], int32(lj*len(src.rowG)), hi-lo == 1
		for _, sg := range src.segs[lo:hi] {
			out = append(out, block{})
			r := &out[len(out)-1]
			r.k, r.off, r.n, r.col, r.row, r.drow, r.g, r.doff = int32(k), off+sg.li0, sg.n, fixed, sg.loc0, 1, 1, sg.step
			if s.transpose {
				r.col, r.row, r.dcol, r.drow = sg.loc0, fixed, 1, 0
			}
			if n := len(out); join && n > 1 {
				if b := &out[n-2]; b.g > 1 && b.extends(r) || b.g == 1 && b.pairs(r) {
					out = out[:n-1]
				}
			}
		}
	}
	s.out = out
	return out
}

// fill copies round k's slab data into one exactly sized arena bucket per
// owner: the values of the owner's blocks, back to back.
func (s *schedule) fill(parts [][]float64, data []float64, k int) {
	for owner := range parts {
		blocks := s.blocks(s.me, k, owner)
		n := total(blocks)
		if n == 0 {
			continue
		}
		part, at := bufpool.GetF64(n)[:n], 0
		for j := range blocks {
			b := &blocks[j]
			n, doff := int(b.n), int(b.doff)
			for i, off := 0, int(b.off); i < int(b.g); i, off = i+1, off+int(b.offStep) {
				if doff == 1 {
					at += copy(part[at:], data[off:off+n])
					continue
				}
				for t := range n {
					part[at+t] = data[off+t*doff]
				}
				at += n
			}
		}
		parts[owner] = part
	}
}

// inbound returns the blocks of q's round-k payload in to this rank,
// which must hold exactly their values.
func (s *schedule) inbound(q, k int, in []float64) ([]block, error) {
	blocks := s.blocks(q, k, s.me)
	if n := total(blocks); n != len(in) {
		return nil, &PayloadError{From: q, Round: k, Got: len(in), Want: n}
	}
	return blocks, nil
}

func total(blocks []block) (n int) {
	for i := range blocks {
		n += blocks[i].size()
	}
	return n
}

// inspect is a func map's inspector: it evaluates fn over this rank's
// elements in routing order, range-checks each result, cuts every owner's
// stream into runs (grows) and exchanges the run tables once. A table is
// a status and then (round, n, col, row, dcol, drow) per run (0), or the
// first element outside the destination, (gi, gj, di, dj) (1): every rank
// reads every table, so all return the same error and none is left parked.
func (s *schedule) inspect(fn func(gi, gj int) (di, dj int), ds [2]int, tag int,
	exchange func(tag int, parts [][]float64) [][]float64) error {
	src, size := &s.srcs[s.me], len(s.srcs)
	own0, loc0, own1, loc1 := s.dstT.Dim[0].Own, s.dstT.Dim[0].Loc, s.dstT.Dim[1].Own, s.dstT.Dim[1].Loc
	s.sent, s.got = make([][]block, size), make([][]block, size)
	var bad []float64
walk:
	for k := 0; k < src.rounds; k++ {
		// Only the element right after a run's last can continue it (its
		// slab offset is the next), so the run to grow is the last one's.
		cur, curOwner := (*block)(nil), -1
		for lj, gj := range src.colG[k*src.w : min((k+1)*src.w, len(src.colG))] {
			for li, gi := range src.rowG {
				di, dj := fn(int(gi), int(gj))
				if !inShape(di, dj, ds) {
					bad = []float64{1, float64(gi), float64(gj), float64(di), float64(dj)}
					break walk
				}
				owner, off, col, row := int(own0[di]+own1[dj]), lj*len(src.rowG)+li, int(loc1[dj]), int(loc0[di])
				if owner != curOwner || !cur.grows(off, col, row) {
					s.sent[owner] = append(s.sent[owner], block{k: int32(k), off: int32(off), n: 1, col: int32(col), row: int32(row), g: 1, doff: 1})
					cur, curOwner = &s.sent[owner][len(s.sent[owner])-1], owner
				}
			}
		}
	}
	parts := make([][]float64, size)
	defer releaseBuckets(parts)
	for owner, runs := range s.sent {
		b := append(bufpool.GetF64(max(len(bad), 1+6*len(runs)))[:0], bad...)
		if bad == nil {
			b = append(b, 0)
			for _, r := range runs {
				b = append(b, float64(r.k), float64(r.n), float64(r.col), float64(r.row), float64(r.dcol), float64(r.drow))
			}
		}
		parts[owner] = b
	}
	incoming := exchange(tag, parts)
	defer releaseBuckets(incoming)
	for q, in := range incoming {
		if len(in) == 5 && in[0] == 1 {
			return &ShapeError{Gi: int(in[1]), Gj: int(in[2]), Di: int(in[3]), Dj: int(in[4]), Shape: ds}
		}
		if err := s.decode(q, in); err != nil {
			return err
		}
	}
	return nil
}

// grows adds the element at slab offset off, bound for local element
// (col, row), to one-run block r if it continues r affinely, at most one
// column on.
func (r *block) grows(off, col, row int) bool {
	rOff, rCol, rRow, n := int(r.off), int(r.col), int(r.row), int(r.n)
	if n == 1 && off == rOff+1 && max(col-rCol, rCol-col) <= 1 {
		r.dcol, r.drow = int32(col-rCol), int32(row-rRow)
	}
	if off != rOff+n || col != rCol+n*int(r.dcol) || row != rRow+n*int(r.drow) {
		return false
	}
	r.n++
	return true
}

// decode reads q's run table, rejecting one out of round order or
// leaving the local array.
func (s *schedule) decode(q int, in []float64) error {
	if len(in) == 0 || in[0] != 0 || (len(in)-1)%6 != 0 {
		return fmt.Errorf("collio: inspector table of %d values from rank %d is malformed", len(in), q)
	}
	src, inside := &s.srcs[q], func(col, row int) bool { return uint(col) < uint(s.cols) && uint(row) < uint(s.rows) }
	s.got[q] = make([]block, 0, (len(in)-1)/6)
	for i := 1; i < len(in); i += 6 {
		k, n, col, row, dcol, drow := int(in[i]), int(in[i+1]), int(in[i+2]), int(in[i+3]), int(in[i+4]), int(in[i+5])
		if len(s.got[q]) > 0 && k < int(s.got[q][len(s.got[q])-1].k) || k < 0 || k >= src.rounds ||
			n < 1 || n > len(src.rowG)*src.w || max(dcol, -dcol) > 1 || max(drow, -drow) > s.rows ||
			!inside(col, row) || !inside(col+(n-1)*dcol, row+(n-1)*drow) {
			return fmt.Errorf("collio: inspector table from rank %d has a run (round %d, n %d, at %d,%d, step %d,%d) out of round order or outside the local %dx%d",
				q, k, n, row, col, drow, dcol, s.rows, s.cols)
		}
		s.got[q] = append(s.got[q], block{k: int32(k), n: int32(n), col: int32(col), row: int32(row), dcol: int32(dcol), drow: int32(drow), g: 1, doff: 1})
	}
	return nil
}

// releaseBuckets returns every bucket to the arena.
func releaseBuckets(buckets [][]float64) {
	for i, b := range buckets {
		mp.ReleaseBuf(b)
		buckets[i] = nil
	}
}

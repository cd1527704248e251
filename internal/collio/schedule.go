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

// run is one stretch of a source rank's round k going to one owner: the n
// values at offsets off, off+1, … of the round's slab (full local columns,
// column-major) land at the owner's local elements (col + t·dcol,
// row + t·drow), t = 0, 1, …, dcol one of -1, 0, 1. A message is the
// values of its runs back to back, in schedule order.
type run struct {
	k, off, n, col, row, dcol, drow int
}

// lin returns the run's first linear index and step in a local array of rows rows.
func (r run) lin(rows int) (lin, step int) {
	return r.col*rows + r.row, r.dcol*rows + r.drow
}

// span returns the positions [t0, t1) of run r whose column lies in
// [clo, chi): one stretch, the columns being monotone.
func (r run) span(clo, chi int) (t0, t1 int) {
	switch r.dcol {
	case 0:
		if r.col < clo || r.col >= chi {
			return 0, 0
		}
		return 0, r.n
	case 1:
		t0, t1 = clo-r.col, chi-r.col
	default:
		t0, t1 = r.col-chi+1, r.col-clo+1
	}
	return min(max(t0, 0), r.n), min(max(t1, 0), r.n)
}

// seg is a run of a rank's local rows [li0, li0+n) whose destination
// index along the swept dimension has one owner contribution (own, as in
// dist.DimTable.Own) and the consecutive local indices loc0, loc0+1, ….
type seg struct {
	li0, n, own, loc0 int32
}

// segments appends the cut of the local rows (by global index) into the
// maximal runs of the swept destination dimension: one per owner under
// BLOCK, per block under CYCLIC(k), per row under CYCLIC.
func segments(segs []seg, rowG []int32, swept *dist.DimTable) []seg {
	for li, g := range rowG {
		if li == 0 || swept.Own[g] != swept.Own[rowG[li-1]] || swept.Loc[g] != swept.Loc[rowG[li-1]]+1 {
			segs = append(segs, seg{li0: int32(li), own: swept.Own[g], loc0: swept.Loc[g]})
		}
		segs[len(segs)-1].n++
	}
	return segs
}

// schedule says, for every source rank q, round k and destination owner,
// which runs of q's slab go to the owner and where they land; the sender
// fills its buckets and the receivers read their payloads by it. Under the
// identity and the transpose it follows from the two mappings; under a
// func it is what the inspector measured and exchanged: this rank's runs
// to each owner (sent) and each source rank's to this one (got).
type schedule struct {
	me         int
	dstT       *dist.Tables2
	rows, cols int      // this rank's destination local shape
	srcs       []source // one per rank of the machine
	// fixed is the destination dimension a source column fixes under a
	// structured map, its rows sweeping the other; nil under a func.
	fixed     *dist.DimTable
	transpose bool
	sent, got [][]run
	kept
}

// kept is the storage a schedule keeps while pooled, so that a
// redistribution appends into the capacity the last one left: segments,
// the last runs computed, the two-phase receiver's list of runs to this
// rank, and the run receiver's sort keys (twice: a counting pass moves
// them from one to the other), bucket counts, arrivals, values and
// chunks. Every user starts its slices at length zero.
type kept struct {
	segBuf       []seg
	out, list    []run
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
			c.segs = s.segBuf[at:]
			slices.SortStableFunc(c.segs, func(a, b seg) int { return int(a.own - b.own) })
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

// runs returns the runs q sends owner in round k, in bucket order: column
// by column, down each column. The slice is valid until the next call.
func (s *schedule) runs(q, k, owner int) []run {
	if s.fixed == nil {
		tab := s.got[q]
		if q == s.me {
			tab = s.sent[owner]
		}
		byRound := func(r run, k int) int { return r.k - k }
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
		// to owner: one under BLOCK.
		if o := int32(owner) - s.fixed.Own[gj]; o != want {
			want = o
			lo, _ = slices.BinarySearchFunc(src.segs, want, func(sg seg, o int32) int { return int(sg.own - o) })
			for hi = lo; hi < len(src.segs) && src.segs[hi].own == want; hi++ {
			}
		}
		// The column fixes one destination index, its segments sweep the
		// other. Filled in place: a run built aside costs a stalled load.
		fixed, off := int(s.fixed.Loc[gj]), lj*len(src.rowG)
		for _, sg := range src.segs[lo:hi] {
			out = append(out, run{})
			r := &out[len(out)-1]
			r.k, r.off, r.n, r.col, r.row, r.drow = k, off+int(sg.li0), int(sg.n), fixed, int(sg.loc0), 1
			if s.transpose {
				r.col, r.row, r.dcol, r.drow = int(sg.loc0), fixed, 1, 0
			}
		}
	}
	s.out = out
	return out
}

// fill copies round k's slab data into one exactly sized arena bucket per
// owner: the values of the owner's runs, back to back.
func (s *schedule) fill(parts [][]float64, data []float64, k int) {
	for owner := range parts {
		runs := s.runs(s.me, k, owner)
		if n := total(runs); n > 0 {
			parts[owner] = bufpool.GetF64(n)[:0]
			for _, r := range runs {
				parts[owner] = append(parts[owner], data[r.off:r.off+r.n]...)
			}
		}
	}
}

// inbound returns the runs of q's round-k payload in to this rank, which
// must hold exactly their values.
func (s *schedule) inbound(q, k int, in []float64) ([]run, error) {
	runs := s.runs(q, k, s.me)
	if n := total(runs); n != len(in) {
		return nil, &PayloadError{From: q, Round: k, Got: len(in), Want: n}
	}
	return runs, nil
}

func total(runs []run) (n int) {
	for _, r := range runs {
		n += r.n
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
	s.sent, s.got = make([][]run, size), make([][]run, size)
	var bad []float64
walk:
	for k := 0; k < src.rounds; k++ {
		// Only the element right after a run's last can continue it (its
		// slab offset is the next), so the run to grow is the last one's.
		cur, curOwner := (*run)(nil), -1
		for lj, gj := range src.colG[k*src.w : min((k+1)*src.w, len(src.colG))] {
			for li, gi := range src.rowG {
				di, dj := fn(int(gi), int(gj))
				if !inShape(di, dj, ds) {
					bad = []float64{1, float64(gi), float64(gj), float64(di), float64(dj)}
					break walk
				}
				owner, off, col, row := int(own0[di]+own1[dj]), lj*len(src.rowG)+li, int(loc1[dj]), int(loc0[di])
				if owner != curOwner || !cur.grows(off, col, row) {
					s.sent[owner] = append(s.sent[owner], run{k: k, off: off, n: 1, col: col, row: row})
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
// (col, row), to run r if it continues r affinely, at most one column on.
func (r *run) grows(off, col, row int) bool {
	if r.n == 1 && off == r.off+1 && max(col-r.col, r.col-col) <= 1 {
		r.dcol, r.drow = col-r.col, row-r.row
	}
	if off != r.off+r.n || col != r.col+r.n*r.dcol || row != r.row+r.n*r.drow {
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
	s.got[q] = make([]run, 0, (len(in)-1)/6)
	for i := 1; i < len(in); i += 6 {
		r := run{k: int(in[i]), n: int(in[i+1]), col: int(in[i+2]), row: int(in[i+3]), dcol: int(in[i+4]), drow: int(in[i+5])}
		if len(s.got[q]) > 0 && r.k < s.got[q][len(s.got[q])-1].k || r.k < 0 || r.k >= src.rounds ||
			r.n < 1 || r.n > len(src.rowG)*src.w || max(r.dcol, -r.dcol) > 1 || max(r.drow, -r.drow) > s.rows ||
			!inside(r.col, r.row) || !inside(r.col+(r.n-1)*r.dcol, r.row+(r.n-1)*r.drow) {
			return fmt.Errorf("collio: inspector table from rank %d has a run (round %d, n %d, at %d,%d, step %d,%d) out of round order or outside the local %dx%d",
				q, r.k, r.n, r.row, r.col, r.drow, r.dcol, s.rows, s.cols)
		}
		s.got[q] = append(s.got[q], r)
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

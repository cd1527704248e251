package collio

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/iosim"
)

// receiver applies each round's payloads — per source rank, the values of
// its runs to this rank in schedule order — to the destination LAF under
// one of the write strategies; where each value goes is the schedule's.
// absorb only reads the payloads; the caller releases them.
type receiver interface {
	absorb(k int, incoming [][]float64) error
	finish() error
	cleanup()
}

func newReceiver(dst Side, memElems, rounds int, method Method, sched *schedule) (receiver, error) {
	switch method {
	case Direct, Sieved:
		return &runReceiver{dst: dst, sched: sched, sieve: method == Sieved}, nil
	case TwoPhase:
		return newTwoPhaseReceiver(dst, memElems, rounds, sched)
	}
	return nil, fmt.Errorf("collio: unknown method %d", int(method))
}

// absorbRound applies round k's payloads and returns them to the arena —
// all of them, whether the round could be applied, was malformed, or died
// under a kill part-way through a write.
func absorbRound(recv receiver, k int, incoming [][]float64) error {
	defer releaseBuckets(incoming)
	return recv.absorb(k, incoming)
}

// runReceiver writes each round immediately, run by run (Direct) or
// through a spanning read-modify-write (Sieved). Its scratch is the
// pooled schedule's.
type runReceiver struct {
	dst   Side
	sched *schedule
	sieve bool
}

func (r *runReceiver) absorb(k int, incoming [][]float64) error {
	s := r.sched
	if err := r.coalesce(k, incoming); err != nil || len(s.chunks) == 0 {
		return err
	}
	var sec float64
	var err error
	if r.sieve {
		sec, err = AggregateWrite(r.dst.LAF, s.chunks, s.vals)
	} else {
		sec, err = r.dst.LAF.WriteChunks(s.chunks, s.vals)
	}
	if err == nil {
		r.dst.charge("io-write", sec)
	}
	return err
}

func (r *runReceiver) finish() error { return nil }
func (r *runReceiver) cleanup()      {}

// coalesce orders round k's values by destination index into contiguous
// chunks (sched.chunks) with their values in chunk order (sched.vals).
// Duplicate indices keep arrival order and each starts a fresh chunk, so
// the last writer wins. A value's key is its destination column, row and
// arrival number, most significant first; two stable counting passes, by
// row and then by column, put the keys in column-major index order with
// arrivals in order, in O(values + rows + cols).
func (r *runReceiver) coalesce(k int, incoming [][]float64) error {
	s := r.sched
	n := 0
	for _, in := range incoming {
		n += len(in)
	}
	rows, cols := r.dst.Rows, r.dst.Cols
	seqBits := uint(bits.Len(uint(n)))
	colShift := seqBits + uint(bits.Len(uint(rows)))
	if colShift+uint(bits.Len(uint(cols))) > 64 {
		return fmt.Errorf("collio: %d values into a %dx%d local array are too many to order in one round", n, rows, cols)
	}
	s.keys, s.sorted = slices.Grow(s.keys[:0], n)[:n], slices.Grow(s.sorted[:0], n)[:n]
	s.flat, s.vals, s.chunks = slices.Grow(s.flat[:0], n)[:n], slices.Grow(s.vals[:0], n)[:n], s.chunks[:0]
	s.counts = slices.Grow(s.counts[:0], rows+cols)[:rows+cols]
	byRow, byCol := s.counts[:rows], s.counts[rows:]
	clear(s.counts)
	at := 0
	for q, in := range incoming {
		runs, err := s.inbound(q, k, in)
		if err != nil {
			return err
		}
		for _, ru := range runs {
			col, row := ru.col, ru.row
			for _, v := range in[:ru.n] {
				s.keys[at] = uint64(col)<<colShift | uint64(row)<<seqBits | uint64(at)
				s.flat[at] = v
				byRow[row]++
				byCol[col]++
				col, row, at = col+ru.dcol, row+ru.drow, at+1
			}
			in = in[ru.n:]
		}
	}
	rowMask := uint64(1)<<(colShift-seqBits) - 1
	spread(s.sorted, s.keys, byRow, seqBits, rowMask)
	spread(s.keys, s.sorted, byCol, colShift, math.MaxUint64)
	seqMask := uint64(1)<<seqBits - 1
	next := int64(-1) // the index that would extend the current chunk
	for i, key := range s.keys {
		lin := int64(key>>colShift)*int64(rows) + int64(key>>seqBits&rowMask)
		s.vals[i] = s.flat[key&seqMask]
		if lin == next {
			s.chunks[len(s.chunks)-1].Len++
		} else {
			s.chunks = append(s.chunks, iosim.Chunk{Off: lin, Len: 1})
		}
		next = lin + 1
	}
	return nil
}

// spread is one counting pass: it moves src's keys into dst ordered by
// their digit key>>shift&mask, keeping the order of keys with equal
// digits. count holds how many keys have each digit; spread uses it up.
func spread(dst, src []uint64, count []int, shift uint, mask uint64) {
	at := 0
	for d, c := range count {
		count[d], at = at, at+c
	}
	for _, key := range src {
		d := key >> shift & mask
		dst[count[d]] = key
		count[d]++
	}
}

// twoPhaseReceiver stages values per destination window — local columns
// [wdx·winW, (wdx+1)·winW) — in arrival order in the stretch the window
// holds in the local array: in memory when twice the local array fits the
// budget, otherwise in a scratch file, one contiguous append per window
// and round. Each window's flush replays the schedule to put its values
// in place, then writes it with one request. cleanup returns the store
// and removes the scratch file on every exit.
type twoPhaseReceiver struct {
	dst                Side
	sched              *schedule
	rounds, winW, nWin int
	counts             []int     // values received per window
	store              []float64 // in memory: every window's values
	scratch            *iosim.LAF
	scratchName        string
}

func newTwoPhaseReceiver(dst Side, memElems, rounds int, sched *schedule) (*twoPhaseReceiver, error) {
	local := dst.Rows * dst.Cols
	r := &twoPhaseReceiver{dst: dst, sched: sched, rounds: rounds, winW: WindowWidth(memElems, dst.Rows, dst.Cols)}
	if local > 0 {
		r.nWin = (dst.Cols + r.winW - 1) / r.winW
	}
	r.counts = make([]int, r.nWin)
	if local == 0 || 2*local <= memElems {
		r.store = bufpool.GetF64(local)
		return r, nil
	}
	r.scratchName = fmt.Sprintf("%s.p%d.collio.scratch", dst.Map.Name, dst.Rank)
	scratch, err := dst.LAF.Disk().CreateLAF(r.scratchName, int64(local))
	if err != nil {
		// A create that failed at sizing the file leaves it behind, empty.
		dst.LAF.Disk().RemoveLAF(r.scratchName)
		return nil, err
	}
	r.scratch = scratch
	return r, nil
}

// window returns window wdx's first linear index and element count.
func (r *twoPhaseReceiver) window(wdx int) (base, elems int) {
	return wdx * r.winW * r.dst.Rows, r.dst.Rows * min(r.winW, r.dst.Cols-wdx*r.winW)
}

// absorb gathers round k's values window by window straight from the
// payloads, in arrival order: in memory next to the window's earlier
// values, spilling into a buffer appended to its scratch stretch.
func (r *twoPhaseReceiver) absorb(k int, incoming [][]float64) error {
	list := r.sched.list[:0]
	for q, in := range incoming {
		runs, err := r.sched.inbound(q, k, in)
		if err != nil {
			return err
		}
		list = append(list, runs...)
	}
	r.sched.list = list
	var buf []float64
	if r.store == nil {
		buf = bufpool.GetF64(r.winW * r.dst.Rows)
		defer bufpool.PutF64(buf)
	}
	for wdx := range r.nWin {
		base, elems := r.window(wdx)
		room := buf
		if r.store != nil {
			room = r.store[base:]
		}
		room, n, runs := room[r.counts[wdx]:elems], 0, list
		for _, in := range incoming {
			for len(in) > 0 {
				t0, t1 := runs[0].span(wdx*r.winW, (wdx+1)*r.winW)
				if n+t1-t0 > len(room) {
					return fmt.Errorf("collio: window %d received more elements than it holds (non-injective transform?)", wdx)
				}
				for _, v := range in[t0:t1] { // a loop, not copy: a few values each
					room[n] = v
					n++
				}
				in, runs = in[runs[0].n:], runs[1:]
			}
		}
		if r.store == nil && n > 0 {
			sec, err := r.scratch.WriteChunks([]iosim.Chunk{{Off: int64(base + r.counts[wdx]), Len: n}}, room[:n])
			if err != nil {
				return err
			}
			r.dst.charge("io-write", sec)
		}
		r.counts[wdx] += n
	}
	return nil
}

// finish flushes every window, listing the runs to this rank once in
// arrival order — round, source rank, run — for the flushes to replay. In
// phantom (accounting-only) mode every value is a zero and nothing is
// replayed; every request is still issued and counted identically.
func (r *twoPhaseReceiver) finish() error {
	phantom := r.dst.LAF.Disk().Phantom()
	list := r.sched.list[:0]
	for k := 0; k < r.rounds && !phantom; k++ {
		for q := range r.sched.srcs {
			list = append(list, r.sched.runs(q, k, r.sched.me)...)
		}
	}
	r.sched.list = list
	for wdx := 0; wdx < r.nWin; wdx++ {
		if err := r.flush(wdx); err != nil {
			return err
		}
	}
	return nil
}

// flush puts window wdx's values in place in a staging buffer, replaying
// the runs, and writes the window back with one request, returning what
// it borrows on every way out, a kill inside a transfer included.
func (r *twoPhaseReceiver) flush(wdx int) error {
	base, elems := r.window(wdx)
	var vals []float64
	if r.store != nil {
		vals = r.store[base : base+r.counts[wdx]]
	} else if r.counts[wdx] > 0 {
		vals = bufpool.GetF64(r.counts[wdx])
		defer bufpool.PutF64(vals)
		sec, err := r.scratch.ReadChunks([]iosim.Chunk{{Off: int64(base), Len: len(vals)}}, vals)
		if err != nil {
			return err
		}
		r.dst.charge("io-read", sec)
	}
	// Cleared: with duplicate destination indices a window can receive its
	// size in values without covering every element.
	staging := bufpool.GetF64(elems)
	defer bufpool.PutF64(staging)
	clear(staging)
	win := []iosim.Chunk{{Off: int64(base), Len: elems}}
	if r.counts[wdx] < elems {
		// Partially produced: one contiguous pre-read keeps the rest.
		sec, err := r.dst.LAF.ReadChunks(win, staging)
		if err != nil {
			return err
		}
		r.dst.charge("io-read", sec)
	}
	for _, ru := range r.sched.list {
		t0, t1 := ru.span(wdx*r.winW, (wdx+1)*r.winW)
		at, step := ru.lin(r.dst.Rows)
		for at += t0*step - base; t0 < t1; t0++ {
			staging[at], vals, at = vals[0], vals[1:], at+step
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
	bufpool.PutF64(r.store)
	r.store = nil
	if r.scratch != nil {
		r.scratch.Close()
		r.dst.LAF.Disk().RemoveLAF(r.scratchName)
		r.scratch = nil
	}
}

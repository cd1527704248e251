package collio

import (
	"fmt"
	"slices"
	"testing"

	"github.com/ooc-hpf/passion/internal/dist"
)

// linears lists the destination linear index of every value of blocks,
// in payload order, in a local array of rows rows.
func linears(blocks []block, rows int) []int {
	var out []int
	for _, b := range blocks {
		lin, istep, tstep := b.lin(rows)
		for i := range int(b.g) {
			for t := range int(b.n) {
				out = append(out, lin+i*istep+t*tstep)
			}
		}
	}
	return out
}

// element is one value of a round's slab: its offset in the slab and the
// destination's local element it lands at.
type element struct{ off, col, row int }

// expand lists every value of blocks in payload order.
func expand(blocks []block) []element {
	var out []element
	for _, b := range blocks {
		for i := range b.g {
			for t := range b.n {
				out = append(out, element{
					off: int(b.off + i*b.offStep + t*b.doff),
					col: int(b.col + i*b.colStep + t*b.dcol),
					row: int(b.row + i*b.rowStep + t*b.drow),
				})
			}
		}
	}
	return out
}

// oracleRuns is the structured schedule as it was cut before blocks: the
// values q sends owner in round k, column by column, one run per segment
// of the swept dimension down each column, every run consecutive in the
// slab.
func oracleRuns(s *schedule, q, k, owner int) []element {
	src, swept := &s.srcs[q], &s.dstT.Dim[0]
	if s.transpose {
		swept = &s.dstT.Dim[1]
	}
	if k >= src.rounds || owner >= len(s.dstT.Rows) {
		return nil
	}
	segs := segments(nil, src.rowG, swept)
	slices.SortStableFunc(segs, func(a, b seg) int { return int(a.own - b.own) })
	var out []element
	for lj, gj := range src.colG[k*src.w : min((k+1)*src.w, len(src.colG))] {
		fixed := int(s.fixed.Loc[gj])
		for _, sg := range segs {
			if sg.own != int32(owner)-s.fixed.Own[gj] {
				continue
			}
			for t := range int(sg.n) {
				e := element{off: lj*len(src.rowG) + int(sg.li0) + t, col: fixed, row: int(sg.loc0) + t}
				if s.transpose {
					e.col, e.row = int(sg.loc0)+t, fixed
				}
				out = append(out, e)
			}
		}
	}
	return out
}

// checkBlocks holds every block of the schedule to the oracle's runs and
// to the shape the receivers rely on: each window of columns winW wide
// takes a rectangle of runs and positions, exactly the values whose
// columns it holds.
func checkBlocks(s *schedule, q, k, owner, winW, cols int) error {
	blocks := slices.Clone(s.blocks(q, k, owner))
	if got, want := expand(blocks), oracleRuns(s, q, k, owner); !slices.Equal(got, want) {
		return fmt.Errorf("%d -> %d round %d: blocks %+v expand to\n%v\nthe oracle's runs to\n%v", q, owner, k, blocks, got, want)
	}
	for _, b := range blocks {
		if b.g < 1 || b.n < 1 || b.doff < 1 || max(b.dcol, -b.dcol) > 1 || max(b.colStep, -b.colStep) > 1 {
			return fmt.Errorf("%d -> %d round %d: malformed block %+v", q, owner, k, b)
		}
		for clo := 0; clo < cols; clo += winW {
			i0, i1, t0, t1 := b.part(clo, clo+winW)
			for i := range int(b.g) {
				for t := range int(b.n) {
					col := int(b.col) + i*int(b.colStep) + t*int(b.dcol)
					in, inPart := col >= clo && col < clo+winW, i >= i0 && i < i1 && t >= t0 && t < t1
					if in != inPart {
						return fmt.Errorf("%d -> %d round %d: block %+v, window [%d,%d): part [%d,%d)x[%d,%d) and value (%d,%d) in column %d disagree",
							q, owner, k, b, clo, clo+winW, i0, i1, t0, t1, i, t, col)
					}
				}
			}
		}
	}
	return nil
}

// FuzzBlockSchedule draws shapes, machine sizes, memory budgets and pairs
// of regular mappings — BLOCK, CYCLIC, CYCLIC(k), grids and ragged last
// blocks — under the identity and the transpose, and holds the blocks of
// every source rank, round and owner to the per-run oracle.
func FuzzBlockSchedule(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(4), uint8(2), uint8(0), uint8(0), true, uint16(64))   // transpose_real's shape
	f.Add(uint8(16), uint8(16), uint8(4), uint8(2), uint8(0), uint8(2), true, uint16(64))   // into CYCLIC columns
	f.Add(uint8(17), uint8(13), uint8(3), uint8(3), uint8(0), uint8(4), true, uint16(40))   // CYCLIC(k), ragged
	f.Add(uint8(12), uint8(12), uint8(4), uint8(2), uint8(0), uint8(3), false, uint16(30))  // CYCLIC rows, identity
	f.Add(uint8(12), uint8(10), uint8(6), uint8(2), uint8(7), uint8(6), false, uint16(100)) // grids
	f.Add(uint8(9), uint8(9), uint8(4), uint8(1), uint8(1), uint8(5), true, uint16(1))      // one-column slabs
	f.Add(uint8(4), uint8(95), uint8(4), uint8(2), uint8(5), uint8(7), false, uint16(64))   // destinations continue, offsets do not
	f.Fuzz(func(t *testing.T, r, c, p, k, srcKind, dstKind uint8, transpose bool, mem uint16) {
		rows, cols, procs, kk := 1+int(r)%24, 1+int(c)%24, 1+int(p)%8, 1+int(k)%5
		memElems := 1 + int(mem)%(2*rows*cols)
		dr, dc := rows, cols
		if transpose {
			dr, dc = cols, rows
		}
		srcMap, err := mappingKinds[int(srcKind)%len(mappingKinds)]("src", rows, cols, procs, kk)
		if err != nil {
			return
		}
		dstMap, err := mappingKinds[int(dstKind)%len(mappingKinds)]("dst", dr, dc, procs, kk)
		if err != nil {
			return
		}
		m := IndexMap{transpose: transpose}
		for me := range procs {
			dRows, dCols := localShape(dstMap, me)
			s := newSchedule(me, procs, srcMap, dstMap.Tables2(), Side{Rows: dRows, Cols: dCols}, memElems, m)
			winW := WindowWidth(memElems, dRows, dCols)
			for q := range procs {
				for round := range s.srcs[q].rounds + 1 {
					if err := checkBlocks(s, q, round, me, winW, dCols); err != nil {
						t.Fatalf("%dx%d over %d, k=%d, mem=%d, kinds %d->%d, transpose=%v: %v",
							rows, cols, procs, kk, memElems, srcKind, dstKind, transpose, err)
					}
				}
			}
			s.release()
		}
	})
}

// TestBlocksOfTranspose pins the blocks of transpose_real's geometry at a
// small size: the columns of a round to one owner are one block, on
// consecutive destination rows (rank 1's second round: rows 6 and 7), whether the destination's columns are
// BLOCK or CYCLIC; under CYCLIC each run gathers every P-th source row.
func TestBlocksOfTranspose(t *testing.T) {
	const n, p, w = 16, 4, 2
	srcMap := colBlockMap(t, "src", n, p)
	for name, cols := range map[string]dist.Map{"block": dist.NewBlock(n, p), "cyclic": dist.NewCyclic(n, p)} {
		dstMap, err := dist.NewArray("dst", dist.NewCollapsed(n), cols)
		if err != nil {
			t.Fatal(err)
		}
		s := newSchedule(0, p, srcMap, dstMap.Tables2(), Side{Rows: n, Cols: n / p}, 2*n*w, Transpose())
		doff := map[string]int32{"block": 1, "cyclic": p}[name]
		want := block{k: 1, n: n / p, row: n/p + w, dcol: 1, g: w, doff: doff, offStep: n, rowStep: 1}
		if got := s.blocks(1, 1, 0); len(got) != 1 || got[0] != want {
			t.Errorf("%s: round 1 of rank 1 to rank 0 is %+v, want the one block %+v", name, got, want)
		}
		s.release()
	}
}

// TestStrided pins the merge of a CYCLIC cut's single rows into strided
// segments, and that nothing else merges.
func TestStrided(t *testing.T) {
	cases := []struct {
		name       string
		segs, want []seg
	}{
		{"cyclic rows of one owner", []seg{{1, 1, 0, 0, 1}, {4, 1, 0, 1, 1}, {7, 1, 0, 2, 1}, {0, 1, 1, 0, 1}},
			[]seg{{1, 3, 0, 0, 3}, {0, 1, 1, 0, 1}}},
		{"an uneven gap starts a new segment", []seg{{0, 1, 0, 0, 1}, {2, 1, 0, 1, 1}, {5, 1, 0, 2, 1}},
			[]seg{{0, 2, 0, 0, 2}, {5, 1, 0, 2, 1}}},
		{"a jump in the local index starts a new segment", []seg{{0, 1, 0, 0, 1}, {2, 1, 0, 2, 1}},
			[]seg{{0, 1, 0, 0, 1}, {2, 1, 0, 2, 1}}},
		{"cyclic(k) blocks stay apart", []seg{{0, 3, 0, 0, 1}, {6, 3, 0, 3, 1}},
			[]seg{{0, 3, 0, 0, 1}, {6, 3, 0, 3, 1}}},
	}
	for _, tc := range cases {
		if got := strided(slices.Clone(tc.segs)); !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

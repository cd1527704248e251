package collio

import (
	"slices"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
)

// absorbOracle is absorb's copy of the part of block b in the columns
// [clo, chi), from b's payload in to the front of room, value by value;
// it returns the number of values copied.
func absorbOracle(room, in []float64, b *block, clo, chi int) int {
	i0, i1, t0, t1 := b.part(clo, chi)
	n := 0
	for i := i0; i < i1; i++ {
		dst := room[n : n+t1-t0]
		src := in[i*int(b.n)+t0:][:len(dst)]
		for j := range dst {
			dst[j] = src[j]
		}
		n += len(dst)
	}
	return n
}

// absorbTile is the same copy the way absorb makes it, through gather.
func absorbTile(room, in []float64, b *block, clo, chi int) int {
	i0, i1, t0, t1 := b.part(clo, chi)
	tile := (i1 - i0) * (t1 - t0)
	if tile > 0 {
		gather(room[:tile], in[i0*int(b.n)+t0:], t1-t0, int(b.n))
	}
	return tile
}

// scatterOracle is scatter element by element: column by column where the
// runs lie side by side, run by run otherwise.
func scatterOracle(staging, vals []float64, b *block, clo, chi, rows, base int) []float64 {
	i0, i1, t0, t1 := b.part(clo, chi)
	m, e := i1-i0, t1-t0
	if m == 0 || e == 0 {
		return vals
	}
	lin, istep, tstep := b.lin(rows)
	at := lin - base + i0*istep + t0*tstep
	part := vals[:m*e]
	if istep == 1 {
		for t := range e {
			col := staging[at+t*tstep:][:m]
			for i := range col {
				col[i] = part[i*e+t]
			}
		}
		return vals[m*e:]
	}
	for i := range m {
		for t, a := 0, at+i*istep; t < e; t, a = t+1, a+tstep {
			staging[a] = part[i*e+t]
		}
	}
	return vals[m*e:]
}

// ramp returns n distinct values from from on.
func ramp(n int, from float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = from + float64(i)
	}
	return v
}

// FuzzTileKernels draws a block — g runs of n values, n up to 17, its
// columns stepping by -1, 0 or 1 along a run (dcol) or from run to run
// (colStep), its rows by small steps of either sign — places it in a
// local array with room to spare, and cuts it with every window [clo,
// chi) of the array's columns, so that every width and offset of a part
// occurs. For each, the copy absorb makes must fill room exactly like
// absorbOracle, and scatter must leave the window's staging and the
// values it hands back exactly like scatterOracle. Steps that put two of
// a part's values on one element (tstep 0 or 1 with runs side by side)
// hold scatter to the oracle's order of stores.
func FuzzTileKernels(f *testing.F) {
	f.Add(uint8(7), uint8(15), int8(1), int8(0), int8(0), int8(1), uint8(2), uint8(3))   // transpose_real: runs side by side, values a column apart
	f.Add(uint8(4), uint8(3), int8(0), int8(1), int8(0), int8(1), uint8(0), uint8(1))    // values on consecutive rows: elements written twice
	f.Add(uint8(2), uint8(6), int8(0), int8(1), int8(1), int8(0), uint8(1), uint8(2))    // identity: a run per column, each one copy
	f.Add(uint8(5), uint8(0), int8(1), int8(0), int8(-1), int8(2), uint8(3), uint8(0))   // one value a run, columns stepping back
	f.Add(uint8(3), uint8(16), int8(-1), int8(0), int8(0), int8(-2), uint8(1), uint8(1)) // columns stepping back along a run
	f.Add(uint8(6), uint8(8), int8(0), int8(0), int8(0), int8(0), uint8(0), uint8(0))    // every value on one element
	f.Fuzz(func(t *testing.T, g, n uint8, dcol, drow, colStep, rowStep int8, slackC, slackR uint8) {
		b := block{g: 1 + int32(g)%9, n: 1 + int32(n)%17, dcol: int32(dcol) % 2, drow: int32(drow) % 5,
			colStep: int32(colStep) % 2, rowStep: int32(rowStep) % 5}
		if b.colStep != 0 && b.n > 1 {
			b.dcol = 0 // a schedule pairs runs across columns only when every window takes a rectangle
		}
		// The extent of the block's places from its first, and the array
		// that holds them with slack on every side.
		minC, maxC, minR, maxR := 0, 0, 0, 0
		for _, i := range [2]int32{0, b.g - 1} {
			for _, t := range [2]int32{0, b.n - 1} {
				c, r := int(i*b.colStep+t*b.dcol), int(i*b.rowStep+t*b.drow)
				minC, maxC, minR, maxR = min(minC, c), max(maxC, c), min(minR, r), max(maxR, r)
			}
		}
		sc, sr := int(slackC)%4, int(slackR)%4
		cols, rows := maxC-minC+1+sc, maxR-minR+1+sr
		b.col, b.row = int32(sc/2-minC), int32(sr/2-minR)
		const extra = 3 // values after the block's: the next block's
		in := ramp(b.size()+extra, 1)
		for clo := range cols {
			for chi := clo + 1; chi <= cols; chi++ {
				i0, i1, t0, t1 := b.part(clo, chi)
				tile := (i1 - i0) * (t1 - t0)
				want, got := ramp(tile+extra, -1e6), ramp(tile+extra, -1e6)
				if n, m := absorbOracle(want, in, &b, clo, chi), absorbTile(got, in, &b, clo, chi); n != m || !slices.Equal(bitsOf(got), bitsOf(want)) {
					t.Fatalf("block %+v in a %dx%d array, window [%d,%d): absorb copied %d values %v, want %d values %v",
						b, rows, cols, clo, chi, m, got, n, want)
				}

				base := clo * rows
				want, got = ramp((chi-clo)*rows, -1e6), ramp((chi-clo)*rows, -1e6)
				vals := ramp(tile+extra, 1e6)
				wantLeft, left := scatterOracle(want, vals, &b, clo, chi, rows, base), scatter(got, vals, &b, clo, chi, rows, base)
				if !slices.Equal(bitsOf(got), bitsOf(want)) || len(left) != len(wantLeft) || len(left) > 0 && &left[0] != &wantLeft[0] {
					t.Fatalf("block %+v in a %dx%d array, window [%d,%d): scatter left staging %v and %d values, want %v and %d",
						b, rows, cols, clo, chi, got, len(left), want, len(wantLeft))
				}
			}
		}
	})
}

// twoPhaseReceive is rank 0's receiver in transpose_real's redistribution
// on its own — N=1024 over 8 ranks, memElems 16·1024, on MemFS — with
// every round's payloads made beforehand. The receiver spills: op absorbs
// the 16 rounds, appending each window's values to scratch, and flushes
// the 32 windows into the destination file; check verifies that file.
// The receiver and its files are made once, and op starts from empty
// windows, so what op allocates is the receiver's steady state.
func twoPhaseReceive(tb testing.TB) (op, check func(), cleanup func()) {
	const n, p, memElems = transposeN, 8, 16 * 1024
	srcMap, dstMap := colBlockMap(tb, "src", n, p), colBlockMap(tb, "dst", n, p)
	disk := iosim.NewDisk(iosim.NewMemFS(), sim.Delta(p), nil)
	dst := sideFor(tb, disk, dstMap, 0, nil)
	s := newSchedule(0, p, srcMap, dstMap.Tables2(), dst, memElems, Transpose())
	r, err := newTwoPhaseReceiver(dst, memElems, s)
	if err != nil {
		tb.Fatal(err)
	}
	if r.scratch == nil {
		tb.Fatal("the receiver holds its windows in memory; want a spilling one")
	}
	// rounds[k][q] is source rank q's round-k payload to rank 0: the
	// values of its blocks, taken from q's slab of the source a(i,j).
	rounds := make([][][]float64, s.srcs[0].rounds)
	for k := range rounds {
		rounds[k] = make([][]float64, p)
		for q := range p {
			src := &s.srcs[q]
			for _, b := range s.blocks(q, k, 0) {
				for i := range int(b.g) {
					for t := range int(b.n) {
						off := int(b.off) + i*int(b.offStep) + t*int(b.doff)
						gi, gj := src.rowG[off%len(src.rowG)], src.colG[k*src.w+off/len(src.rowG)]
						rounds[k][q] = append(rounds[k][q], valueAt(int(gi), int(gj)))
					}
				}
			}
		}
	}
	op = func() {
		clear(r.counts)
		s.list = s.list[:0]
		for k, incoming := range rounds {
			if err := r.absorb(k, incoming); err != nil {
				tb.Fatal(err)
			}
		}
		if err := r.finish(); err != nil {
			tb.Fatal(err)
		}
	}
	check = func() {
		if err := checkSide(dst, func(gi, gj int) float64 { return valueAt(gj, gi) }); err != nil {
			tb.Fatal(err)
		}
	}
	cleanup = func() {
		r.cleanup()
		s.release()
		dst.LAF.Close()
	}
	return op, check, cleanup
}

// BenchmarkTwoPhaseReceive times the two-phase receiver of
// transpose_real's shape alone: absorbing 16 rounds and flushing 32
// windows through a scratch file, without the shuffle or the source
// reads.
func BenchmarkTwoPhaseReceive(b *testing.B) {
	op, check, cleanup := twoPhaseReceive(b)
	defer cleanup()
	op()                                // warm-up: the arena holds every class the op takes
	b.SetBytes(transposeN * transposeN) // rank 0's eighth of the array, 8 bytes a value
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	check()
}

// TestTwoPhaseReceiveAllocs: a warm two-phase receiver absorbs and
// flushes a whole redistribution without allocating.
func TestTwoPhaseReceiveAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the arena drops a random share of releases under the race detector")
	}
	op, check, cleanup := twoPhaseReceive(t)
	defer cleanup()
	op()
	if allocs := testing.AllocsPerRun(3, op); allocs != 0 {
		t.Errorf("a warm two-phase receive allocates %v times, want 0", allocs)
	}
	check()
}

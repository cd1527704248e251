package collio

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

func valueAt(gi, gj int) float64 { return float64(gi*1000 + gj + 1) }

// globalIndex translates a local (row, col) index to global indices the
// readable way — the oracle for the tables Redistribute routes by.
func (s Side) globalIndex(li, lj int) (gi, gj int) {
	gi = s.Map.Dims[0].ToGlobal(s.Map.ProcCoord(s.Rank, 0), li)
	gj = s.Map.Dims[1].ToGlobal(s.Map.ProcCoord(s.Rank, 1), lj)
	return gi, gj
}

// sideFor builds the collective Side of one rank's local array file,
// creating and filling the LAF from the global fill function.
func sideFor(t testing.TB, disk *iosim.Disk, dm *dist.Array, rank int, fill func(gi, gj int) float64) Side {
	t.Helper()
	shape := dm.LocalShape(rank)
	rows, cols := shape[0], shape[1]
	laf, err := disk.CreateLAF(fmt.Sprintf("%s.p%d.laf", dm.Name, rank), int64(rows*cols))
	if err != nil {
		t.Fatal(err)
	}
	s := Side{Map: dm, LAF: laf, Rank: rank, Rows: rows, Cols: cols}
	if fill != nil && rows*cols > 0 {
		data := make([]float64, rows*cols)
		for lj := 0; lj < cols; lj++ {
			for li := 0; li < rows; li++ {
				gi, gj := s.globalIndex(li, lj)
				data[lj*rows+li] = fill(gi, gj)
			}
		}
		if _, err := laf.WriteChunks([]iosim.Chunk{{Off: 0, Len: len(data)}}, data); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// discard closes the sides' files and removes them from the disk's store
// — the two halves of giving their storage back to the arena, which the
// balance checks below count like any other buffer. A name another side
// already replaced or removed is skipped.
func discard(disk *iosim.Disk, sides ...Side) {
	for _, s := range sides {
		s.LAF.Close()
		disk.RemoveLAF(s.LAF.Name())
	}
}

// checkSide verifies every element of the rank's destination file.
func checkSide(s Side, want func(gi, gj int) float64) error {
	if s.Rows*s.Cols == 0 {
		return nil
	}
	data := make([]float64, s.Rows*s.Cols)
	if _, err := s.LAF.ReadChunks([]iosim.Chunk{{Off: 0, Len: len(data)}}, data); err != nil {
		return err
	}
	for lj := 0; lj < s.Cols; lj++ {
		for li := 0; li < s.Rows; li++ {
			gi, gj := s.globalIndex(li, lj)
			if got, w := data[lj*s.Rows+li], want(gi, gj); got != w {
				return fmt.Errorf("rank %d dst(%d,%d)=g(%d,%d): got %g want %g",
					s.Rank, li, lj, gi, gj, got, w)
			}
		}
	}
	return nil
}

// redistCase is one distribution scenario of the method-equivalence
// property: all three write strategies must land every element exactly
// where the destination mapping (after the index map) says.
type redistCase struct {
	name      string
	n, p      int
	memElems  int
	mkSrc     func(n, p int) (*dist.Array, error)
	mkDst     func(n, p int) (*dist.Array, error)
	transpose bool
	wantAt    func(gi, gj int) float64
}

func swap(gi, gj int) (int, int) { return gj, gi }
func same(gi, gj int) (int, int) { return gi, gj }

// indexMaps returns the case's index map in its two forms: structured
// (routed by runs) and as an opaque func (routed element by element).
func (tc redistCase) indexMaps() map[string]IndexMap {
	if tc.transpose {
		return map[string]IndexMap{"runs": Transpose(), "func": Func(swap)}
	}
	return map[string]IndexMap{"runs": {}, "func": Func(same)}
}

func colBlock(name string) func(n, p int) (*dist.Array, error) {
	return func(n, p int) (*dist.Array, error) {
		return dist.NewArray(name, dist.NewCollapsed(n), dist.NewBlock(n, p))
	}
}

func redistCases() []redistCase {
	return []redistCase{
		{
			name: "column-to-row-block", n: 12, p: 4, memElems: 24,
			mkSrc: colBlock("src"),
			mkDst: func(n, p int) (*dist.Array, error) {
				return dist.NewArray("dst", dist.NewBlock(n, p), dist.NewCollapsed(n))
			},
			wantAt: valueAt,
		},
		{
			name: "ragged-to-cyclic", n: 10, p: 3, memElems: 20,
			mkSrc: colBlock("src"),
			mkDst: func(n, p int) (*dist.Array, error) {
				return dist.NewArray("dst", dist.NewCollapsed(n), dist.NewCyclic(n, p))
			},
			wantAt: valueAt,
		},
		{
			name: "ragged-transpose", n: 9, p: 4, memElems: 18,
			mkSrc: colBlock("src"), mkDst: colBlock("dst"),
			transpose: true,
			wantAt:    func(gi, gj int) float64 { return valueAt(gj, gi) },
		},
		{
			name: "to-block-block-grid", n: 12, p: 4, memElems: 24,
			mkSrc: colBlock("src"),
			mkDst: func(n, p int) (*dist.Array, error) {
				return dist.NewGridArray("dst", dist.NewGrid(2, 2),
					dist.NewBlock(n, 2), dist.NewBlock(n, 2))
			},
			wantAt: valueAt,
		},
		{
			name: "identity", n: 8, p: 2, memElems: 16,
			mkSrc:  colBlock("src"),
			mkDst:  colBlock("dst"),
			wantAt: valueAt,
		},
		{
			// One-column slabs and one-column windows with a spilling
			// two-phase receiver: the smallest legal budget.
			name: "tiny-memory-spill", n: 10, p: 4, memElems: 1,
			mkSrc: colBlock("src"), mkDst: colBlock("dst"),
			transpose: true,
			wantAt:    func(gi, gj int) float64 { return valueAt(gj, gi) },
		},
	}
}

// blockCases are scenarios whose rounds send several columns to an owner
// and whose two-phase windows are several columns wide, so a window takes
// a rectangle of many runs of a block, in memory and spilling, into BLOCK
// and into CYCLIC destination columns. They are not in the wire witness.
func blockCases() []redistCase {
	transposed := func(gi, gj int) float64 { return valueAt(gj, gi) }
	return []redistCase{
		{
			name: "blocks-transpose", n: 16, p: 4, memElems: 128,
			mkSrc: colBlock("src"), mkDst: colBlock("dst"),
			transpose: true, wantAt: transposed,
		},
		{
			name: "blocks-transpose-spill", n: 16, p: 2, memElems: 128,
			mkSrc: colBlock("src"), mkDst: colBlock("dst"),
			transpose: true, wantAt: transposed,
		},
		{
			name: "blocks-transpose-to-cyclic", n: 16, p: 2, memElems: 128,
			mkSrc: colBlock("src"),
			mkDst: func(n, p int) (*dist.Array, error) {
				return dist.NewArray("dst", dist.NewCollapsed(n), dist.NewCyclic(n, p))
			},
			transpose: true, wantAt: transposed,
		},
		{
			name: "blocks-identity-to-cyclic-rows", n: 16, p: 2, memElems: 128,
			mkSrc: colBlock("src"),
			mkDst: func(n, p int) (*dist.Array, error) {
				return dist.NewArray("dst", dist.NewCyclic(n, p), dist.NewCollapsed(n))
			},
			wantAt: valueAt,
		},
	}
}

// runCase executes one scenario under one index-map form and one method
// over a fresh in-memory file system, optionally injecting faults, and
// checks the destination.
func runCase(t *testing.T, tc redistCase, form string, m IndexMap, method Method, chaos bool) {
	t.Helper()
	var fs iosim.FS = iosim.NewMemFS()
	var resil *iosim.Resilience
	if chaos {
		fs = iosim.NewChaosFS(fs, iosim.ChaosConfig{Seed: 7, PTransient: 0.05})
		resil = iosim.NewResilience(iosim.DefaultRetryPolicy())
	}
	// One mapping per side, shared by all ranks as exec shares them: the
	// ranks race to publish its routing tables (run under -race in CI).
	srcMap, err := tc.mkSrc(tc.n, tc.p)
	if err != nil {
		t.Fatal(err)
	}
	dstMap, err := tc.mkDst(tc.n, tc.p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mp.Run(sim.Delta(tc.p), func(proc *mp.Proc) error {
		disk := iosim.NewResilientDisk(fs, proc.Config(), &proc.Stats().IO, resil)
		src := sideFor(t, disk, srcMap, proc.Rank(), valueAt)
		dst := sideFor(t, disk, dstMap, proc.Rank(), nil)
		if err := Redistribute(proc, src, dst, tc.memElems, 30, m, method); err != nil {
			return err
		}
		return checkSide(dst, tc.wantAt)
	})
	if err != nil {
		t.Fatalf("routed by %s: %v", form, err)
	}
}

// TestMethodsProduceIdenticalResults is the central property: for every
// distribution scenario, direct, sieved and two-phase all reproduce the
// exact destination contents — so they are bitwise identical to each
// other too.
func TestMethodsProduceIdenticalResults(t *testing.T) {
	for _, tc := range append(redistCases(), blockCases()...) {
		for _, method := range []Method{Direct, Sieved, TwoPhase} {
			t.Run(tc.name+"/"+method.String(), func(t *testing.T) {
				for form, m := range tc.indexMaps() {
					runCase(t, tc, form, m, method, false)
				}
			})
		}
	}
}

// TestMethodsUnderChaos repeats the property with transient fault
// injection and the retrying resilient disk: faults cost retries, never
// correctness.
func TestMethodsUnderChaos(t *testing.T) {
	for _, tc := range redistCases() {
		for _, method := range []Method{Direct, Sieved, TwoPhase} {
			t.Run(tc.name+"/"+method.String(), func(t *testing.T) {
				for form, m := range tc.indexMaps() {
					runCase(t, tc, form, m, method, true)
				}
			})
		}
	}
}

// TestTwoPhaseScratchCleanup checks that a spilling two-phase run removes
// its scratch files, success or not.
func TestTwoPhaseScratchCleanup(t *testing.T) {
	fs := iosim.NewMemFS()
	const n, p = 10, 4
	_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), nil)
		srcMap, err := colBlock("src")(n, p)
		if err != nil {
			return err
		}
		dstMap, err := colBlock("dst")(n, p)
		if err != nil {
			return err
		}
		src := sideFor(t, disk, srcMap, proc.Rank(), valueAt)
		dst := sideFor(t, disk, dstMap, proc.Rank(), nil)
		return Redistribute(proc, src, dst, 1, 31, Transpose(), TwoPhase)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fs.Names() {
		if strings.Contains(name, "collio.scratch") {
			t.Fatalf("scratch file %s left behind", name)
		}
	}
}

// TestTwoPhaseStagingRespectsBudget pins the memory regimes: the
// receiver stages in memory only when twice the local array fits the
// budget; otherwise it spills through a scratch file instead of holding
// O(local) pairs, which is what keeps the collective within memElems.
func TestTwoPhaseStagingRespectsBudget(t *testing.T) {
	fs := iosim.NewMemFS()
	dm, err := dist.NewArray("d", dist.NewCollapsed(8), dist.NewBlock(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	disk := iosim.NewDisk(fs, sim.Delta(1), nil)
	side := sideFor(t, disk, dm, 0, nil) // local 8x8 = 64 elements

	spill, err := newTwoPhaseReceiver(side, 16, new(schedule)) // 2*64 > 16: must spill
	if err != nil {
		t.Fatal(err)
	}
	defer spill.cleanup()
	if spill.store != nil || spill.scratch == nil {
		t.Fatalf("budget 16 for a 64-element local array must spill")
	}
	if spill.winW != 1 { // quarter budget (4 elems) over 8 rows clamps to 1 column
		t.Fatalf("window width %d, want 1", spill.winW)
	}
	if got := spill.scratch.Elems(); got != 64 { // each value once, no index beside it
		t.Fatalf("scratch file of %d elements, want the local array's 64", got)
	}

	mem, err := newTwoPhaseReceiver(side, 128, new(schedule)) // 2*64 <= 128: in memory
	if err != nil {
		t.Fatal(err)
	}
	defer mem.cleanup()
	if mem.store == nil || mem.scratch != nil {
		t.Fatalf("budget 128 for a 64-element local array must stay in memory")
	}
}

func TestMethodStringRoundTrip(t *testing.T) {
	for _, m := range []Method{Direct, Sieved, TwoPhase} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip of %v: got %v, %v", m, got, err)
		}
	}
	if _, err := ParseMethod("sideways"); err == nil {
		t.Fatal("unknown method accepted")
	}
	if got, err := ParseMethod("twophase"); err != nil || got != TwoPhase {
		t.Fatalf("twophase alias: got %v, %v", got, err)
	}
}

func TestSlabWidthClamps(t *testing.T) {
	if w := SrcSlabWidth(100, 10, 8); w != 5 {
		t.Fatalf("SrcSlabWidth(100,10,8) = %d, want 5", w)
	}
	if w := SrcSlabWidth(2, 10, 8); w != 1 {
		t.Fatalf("tiny budget must clamp to one column, got %d", w)
	}
	if w := SrcSlabWidth(1000, 10, 8); w != 8 {
		t.Fatalf("large budget must clamp to all columns, got %d", w)
	}
	if w := WindowWidth(100, 10, 8); w != 2 {
		t.Fatalf("WindowWidth(100,10,8) = %d, want 2", w)
	}
	if w := WindowWidth(100, 0, 8); w != 1 {
		t.Fatalf("empty local array must give width 1, got %d", w)
	}
}

// TestCoalescePairsLastWriterWins: a non-injective func sends, through
// the inspector, two elements to one destination index — from two source
// ranks, and from one rank twice. Direct and sieved writes let the later
// arrival win (source rank, then position in its payload), as element by
// element, and an index nobody lands on keeps the file's zero. Two-phase
// staging keeps a window's values where its elements are, so a window
// receiving more values than it holds is an error in either regime.
func TestCoalescePairsLastWriterWins(t *testing.T) {
	const n, p = 4, 2
	fold := func(gi, gj int) (int, int) {
		switch {
		case gi == 0 && gj == 3: // rank 1's (0,3) onto rank 0's (0,0)
			return 0, 0
		case gi == 2 && gj == 0: // rank 0's (2,0) onto (1,0), which it sends first
			return 1, 0
		}
		return gi, gj
	}
	want := func(gi, gj int) float64 {
		switch {
		case gi == 0 && gj == 0:
			return valueAt(0, 3)
		case gi == 1 && gj == 0:
			return valueAt(2, 0)
		case gi == 0 && gj == 3, gi == 2 && gj == 0:
			return 0
		}
		return valueAt(gi, gj)
	}
	for _, mem := range []int{4 * n * n, n} { // in memory, spilling
		tc := redistCase{n: n, p: p, memElems: mem, mkSrc: colBlock("src"), mkDst: colBlock("dst"), wantAt: want}
		runCase(t, tc, "func", Func(fold), Direct, false)
		runCase(t, tc, "func", Func(fold), Sieved, false)
		_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
			disk := iosim.NewDisk(iosim.NewMemFS(), proc.Config(), nil)
			src := sideFor(t, disk, colBlockMap(t, "src", n, p), proc.Rank(), valueAt)
			dst := sideFor(t, disk, colBlockMap(t, "dst", n, p), proc.Rank(), nil)
			defer discard(disk, src, dst)
			return Redistribute(proc, src, dst, mem, 30, Func(fold), TwoPhase)
		})
		if err == nil || !strings.Contains(err.Error(), "received more elements than it holds") {
			t.Fatalf("two-phase, memElems %d: want the non-injective error, got %v", mem, err)
		}
	}
}

// TestDuplicateLeavesUncoveredZero: a func sending two values to one
// element and none to the one below it fills a window with its size in
// values without covering it. Under every method and in both two-phase
// regimes the uncovered element reads the file's zero and the duplicate
// keeps the later arrival. The arena is checked, so a staging buffer that
// two-phase failed to clear would come back poisoned.
func TestDuplicateLeavesUncoveredZero(t *testing.T) {
	const n, p = 4, 2
	dup := func(gi, gj int) (int, int) {
		if gi == 1 && gj == 0 {
			return 0, 0
		}
		return gi, gj
	}
	want := func(gi, gj int) float64 {
		switch {
		case gi == 0 && gj == 0:
			return valueAt(1, 0)
		case gi == 1 && gj == 0:
			return 0
		}
		return valueAt(gi, gj)
	}
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for _, mem := range []int{4 * n * n, n} { // in memory, spilling
		tc := redistCase{n: n, p: p, memElems: mem, mkSrc: colBlock("src"), mkDst: colBlock("dst"), wantAt: want}
		for _, method := range []Method{Direct, Sieved, TwoPhase} {
			runCase(t, tc, "func", Func(dup), method, false)
		}
	}
}

func colBlockMap(t testing.TB, name string, n, p int) *dist.Array {
	t.Helper()
	dm, err := colBlock(name)(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

// tableSchedule refills s, keeping the storage it holds while pooled, as
// the receiving side of a schedule given outright: rank me, holding rows
// rows, gets from source rank q, in round 0, the values bound for the
// linear indices lins[q], cut into runs by the inspector's rule.
func tableSchedule(s *schedule, me, rows int, lins [][]int) {
	*s = schedule{me: me, got: make([][]block, len(lins)), sent: make([][]block, len(lins)), kept: s.kept}
	for q, l := range lins {
		for i, lin := range l {
			if n := len(s.got[q]); n == 0 || !s.got[q][n-1].grows(i, lin/rows, lin%rows) {
				s.got[q] = append(s.got[q], block{off: int32(i), n: 1, col: int32(lin / rows), row: int32(lin % rows), g: 1, doff: 1})
			}
		}
	}
	s.sent[me] = s.got[me]
}

// poison overwrites every element of k's slices, spare capacity included,
// with values no round produces, so a round that read what an earlier one
// left would show it.
func poison(k *kept) {
	for _, keys := range [][]uint64{k.keys[:cap(k.keys)], k.sorted[:cap(k.sorted)]} {
		for i := range keys {
			keys[i] = math.MaxUint64
		}
	}
	counts, chunks := k.counts[:cap(k.counts)], k.chunks[:cap(k.chunks)]
	for i := range counts {
		counts[i] = math.MinInt
	}
	for i := range chunks {
		chunks[i] = iosim.Chunk{Off: -1, Len: -1}
	}
	for _, s := range [][]float64{k.flat[:cap(k.flat)], k.vals[:cap(k.vals)]} {
		for i := range s {
			s[i] = math.NaN()
		}
	}
}

// referenceCoalesce is the definition coalesce must reproduce: the round's
// (index, value) pairs in arrival order, sorted by index with the
// reflection-based stable sort it replaced, then merged into runs.
func referenceCoalesce(lins [][]int, incoming [][]float64) ([]iosim.Chunk, []float64) {
	type pair struct {
		lin int
		val float64
	}
	var pairs []pair
	for q, l := range lins {
		for i, lin := range l {
			pairs = append(pairs, pair{lin: lin, val: incoming[q][i]})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].lin < pairs[j].lin })
	var chunks []iosim.Chunk
	var vals []float64
	for i, pr := range pairs {
		vals = append(vals, pr.val)
		if i > 0 && pr.lin == pairs[i-1].lin+1 {
			chunks[len(chunks)-1].Len++
		} else {
			chunks = append(chunks, iosim.Chunk{Off: int64(pr.lin), Len: 1})
		}
	}
	return chunks, vals
}

// FuzzCoalescePairs compares the direct receiver's coalesce, fed indices
// by a schedule, with referenceCoalesce on arbitrary rounds: each input
// byte is one value's destination index (low seven bits, so duplicates and
// runs are common; the top bit starts the next source's payload), and the
// values number the arrivals. One pooled schedule serves every input, as
// it serves round after round and redistribution after redistribution:
// its scratch arrives holding the poisoned capacity of inputs of other
// lengths, none of which may reach the round.
func FuzzCoalescePairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 0x83, 0})                             // a duplicate from the next source
	f.Add([]byte{0, 1, 2, 3, 0x84, 5, 6, 0x87})              // one run across three sources
	f.Add([]byte{9, 9, 9, 0x89, 9, 8, 10})                   // one index five times
	f.Add([]byte{127, 0x80, 0xff, 64, 0xc0, 1})              // both ends of the local array
	f.Add([]byte{0, 64, 1, 65, 2, 66, 0x80, 32, 96, 33, 97}) // a transpose's strided runs
	r := &runReceiver{dst: Side{Rows: 16, Cols: 8}, sched: schedules.Get().(*schedule)}
	f.Fuzz(func(t *testing.T, data []byte) {
		lins, incoming := [][]int{nil}, [][]float64{nil}
		for i, b := range data {
			if b&0x80 != 0 {
				lins, incoming = append(lins, nil), append(incoming, nil)
			}
			last := len(lins) - 1
			lins[last] = append(lins[last], int(b&0x7f))
			incoming[last] = append(incoming[last], float64(i)+0.5)
		}
		tableSchedule(r.sched, 0, r.dst.Rows, lins)
		if err := r.coalesce(0, incoming); err != nil {
			t.Fatal(err)
		}
		wantChunks, wantVals := referenceCoalesce(lins, incoming)
		if !slices.Equal(r.sched.chunks, wantChunks) {
			t.Fatalf("chunks %v, reference %v", r.sched.chunks, wantChunks)
		}
		if !slices.Equal(r.sched.vals, wantVals) {
			t.Fatalf("values %v, reference %v", r.sched.vals, wantVals)
		}
		poison(&r.sched.kept)
	})
}

// TestRunReceiverKeepsScratch pins where the Direct and Sieved receivers
// sort and coalesce: in storage the pooled schedule keeps, so the second of
// two identical redistributions appends into the capacity the first left.
// A receiver's whole life — schedule, receiver, one round of a ragged
// transpose, release — then allocates the receiver and nothing else.
func TestRunReceiverKeepsScratch(t *testing.T) {
	if raceDetector {
		t.Skip("the schedule pool drops a random share of releases under the race detector")
	}
	const n, p, mem = 9, 3, 4 * 9 * 9
	srcMap, dstMap := colBlockMap(t, "src", n, p), colBlockMap(t, "dst", n, p)
	disk := iosim.NewDisk(iosim.NewMemFS(), sim.Delta(p), nil)
	dst := sideFor(t, disk, dstMap, 0, nil)
	defer discard(disk, dst)
	var bufs bufpool.Cache
	defer bufs.Flush()
	for _, method := range []Method{Direct, Sieved} {
		incoming := make([][]float64, p)
		redistribute := func() {
			sched := newSchedule(0, p, srcMap, dstMap.Tables2(), dst, mem, Transpose())
			defer sched.release()
			for q := range incoming {
				incoming[q] = bufs.GetF64(total(sched.blocks(q, 0, 0)))
			}
			recv, err := newReceiver(dst, mem, method, sched)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.cleanup()
			if err := absorbRound(&bufs, recv, 0, incoming); err != nil {
				t.Fatal(err)
			}
			if err := recv.finish(); err != nil {
				t.Fatal(err)
			}
		}
		redistribute()
		if allocs := testing.AllocsPerRun(10, redistribute); allocs != 1 {
			t.Errorf("%v: a repeated redistribution's receiver allocates %v times, want 1 (the receiver)", method, allocs)
		}
	}
}

// FuzzRoundPayloadLengths applies one round whose payload lengths are
// fuzzed against a fixed schedule — rank 0's side of a ragged 9x9
// transpose over three ranks — under every receiver and both two-phase
// regimes. A round either fails with a *PayloadError naming the first
// wrong payload or lands every value where the schedule says; it never
// panics, and the arena balances either way.
func FuzzRoundPayloadLengths(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{0, 0xff, 0, 3})
	f.Add([]byte{0, 0, 7, 1})
	const n, p = 9, 3
	srcMap, err := colBlock("src")(n, p)
	if err != nil {
		f.Fatal(err)
	}
	dstMap, err := colBlock("dst")(n, p)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < p+1 {
			return
		}
		regimes := []struct {
			method   Method
			memElems int
		}{{Direct, 4 * n * n}, {Sieved, 4 * n * n}, {TwoPhase, 4 * n * n}, {TwoPhase, 4 * n}}
		regime := regimes[int(data[p])%len(regimes)]
		bufpool.SetChecked(true)
		defer bufpool.SetChecked(false)
		bufpool.ResetStats()
		disk := iosim.NewDisk(iosim.NewMemFS(), sim.Delta(p), nil)
		dst := sideFor(t, disk, dstMap, 0, nil)
		sched := newSchedule(0, p, srcMap, dstMap.Tables2(), dst, regime.memElems, Transpose())
		want := make([]float64, dst.Rows*dst.Cols)
		incoming := make([][]float64, p)
		var firstBad *PayloadError
		for q := range incoming {
			blocks := sched.blocks(q, 0, 0)
			n := total(blocks)
			got := max(n+int(int8(data[q])), 0)
			if got != n && firstBad == nil {
				firstBad = &PayloadError{From: q, Round: 0, Got: got, Want: n}
			}
			incoming[q] = bufpool.GetF64(got)
			for i := range incoming[q] {
				incoming[q][i] = float64(100*q + i + 1)
			}
			for pos, lin := range linears(blocks, dst.Rows) {
				if pos < got {
					want[lin] = incoming[q][pos]
				}
			}
		}
		recv, err := newReceiver(dst, regime.memElems, regime.method, sched)
		if err != nil {
			t.Fatal(err)
		}
		var bufs bufpool.Cache
		err = absorbRound(&bufs, recv, 0, incoming)
		bufs.Flush()
		if err == nil {
			err = recv.finish()
		}
		recv.cleanup()
		var pe *PayloadError
		switch {
		case firstBad != nil && (!errors.As(err, &pe) || *pe != *firstBad):
			t.Fatalf("%v: want %v, got %v", regime, firstBad, err)
		case firstBad == nil && err != nil:
			t.Fatalf("%v: %v", regime, err)
		case firstBad == nil:
			got := make([]float64, len(want))
			if _, err := dst.LAF.ReadChunks([]iosim.Chunk{{Len: len(got)}}, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v: file\n%v\nwant\n%v", regime, got, want)
			}
		}
		discard(disk, dst)
		if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
			t.Fatalf("%v: arena out of balance: %+v", regime, s)
		}
	})
}

// TestRedistributeRankMismatch pins the misuse errors.
func TestRedistributeRankMismatch(t *testing.T) {
	fs := iosim.NewMemFS()
	_, err := mp.Run(sim.Delta(2), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), nil)
		dm, err := colBlock("x")(8, 2)
		if err != nil {
			return err
		}
		s := sideFor(t, disk, dm, proc.Rank(), valueAt)
		wrong := s
		wrong.Rank = (proc.Rank() + 1) % 2
		if err := Redistribute(proc, wrong, s, 8, 32, IndexMap{}, Direct); err == nil {
			return fmt.Errorf("rank mismatch not detected")
		}
		// A destination mapped over more processors than the machine has
		// would route elements to ranks that do not exist.
		wide, err := colBlock("wide")(8, 4)
		if err != nil {
			return err
		}
		d := sideFor(t, disk, wide, proc.Rank(), nil)
		if err := Redistribute(proc, s, d, 8, 32, IndexMap{}, Direct); err == nil || !strings.Contains(err.Error(), "spans 4 processors") {
			return fmt.Errorf("mapping wider than the machine: got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMalformedPayloadReleasesRound pins the error path of the incoming
// loop: a peer delivering a payload whose length is not its schedule's
// fails the redistribution with a *PayloadError, and every arena buffer
// of the round — the bad payload and the not-yet-consumed remainder — is
// still returned to the pool (checked mode counts every Get against a
// Put).
func TestMalformedPayloadReleasesRound(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	const tag = 31
	_, err := mp.Run(sim.Delta(2), func(proc *mp.Proc) error {
		if proc.Rank() == 1 {
			// Mimic one round of the protocol by hand, but ship three
			// values to rank 0, which the identity sends nothing from
			// here (AllToAll copies parts, so a plain slice is fine).
			mp.ReleaseBuf(proc.AllReduceMax(tag, []float64{1}))
			for _, in := range proc.AllToAll(tag, [][]float64{{7, 8, 9}, nil}) {
				mp.ReleaseBuf(in)
			}
			return nil
		}
		disk := iosim.NewResilientDisk(iosim.NewMemFS(), proc.Config(), &proc.Stats().IO, nil)
		dm, err := dist.NewArray("m", dist.NewCollapsed(4), dist.NewBlock(4, 2))
		if err != nil {
			return err
		}
		src := sideFor(t, disk, dm, 0, valueAt)
		dst := sideFor(t, disk, dm, 0, nil)
		defer discard(disk, src, dst)
		rerr := Redistribute(proc, src, dst, 16, tag, IndexMap{}, Direct)
		var pe *PayloadError
		if !errors.As(rerr, &pe) || *pe != (PayloadError{From: 1, Round: 0, Got: 3, Want: 0}) {
			return fmt.Errorf("want the payload-length failure, got %v", rerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Fatalf("arena leak on malformed-payload error: %+v", s)
	}
}

// TestTransformOutsideDestination pins the range check on transform's
// result: an index pair outside the destination's global shape is a
// *ShapeError naming the element, for every method — not a garbage index
// in the schedule. Every rank must return the same error, whether every
// rank hits the bad element (a corner: before any collective) or a single
// one does (the inspector's exchange carries it to the others), and the
// run must come back — under a deadline, so a rank left parked in a
// collective fails the test — with the arena balanced.
func TestTransformOutsideDestination(t *testing.T) {
	const n, p = 8, 4
	transforms := map[string]func(gi, gj int) (int, int){
		"every-rank-past-the-end": func(gi, gj int) (int, int) { return gi, gj + n },
		"every-rank-negative":     func(gi, gj int) (int, int) { return gi - n, gj },
		"one-element": func(gi, gj int) (int, int) {
			if gi == 3 && gj == n-1 { // a second-round element of the last rank only
				return n, gj
			}
			return gi, gj
		},
	}
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for name, transform := range transforms {
		for _, method := range []Method{Direct, Sieved, TwoPhase} {
			t.Run(name+"/"+method.String(), func(t *testing.T) {
				bufpool.ResetStats()
				fs := iosim.NewMemFS()
				errs := make([]error, p)
				done := make(chan error, 1)
				go func() {
					_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
						disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
						srcMap, err := colBlock("src")(n, p)
						if err != nil {
							return err
						}
						dstMap, err := dist.NewArray("dst", dist.NewBlock(n, p), dist.NewCollapsed(n))
						if err != nil {
							return err
						}
						src := sideFor(t, disk, srcMap, proc.Rank(), valueAt)
						dst := sideFor(t, disk, dstMap, proc.Rank(), nil)
						defer discard(disk, src, dst)
						// One column per round; a spilling two-phase receiver.
						errs[proc.Rank()] = Redistribute(proc, src, dst, n, 33, Func(transform), method)
						return nil
					})
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("the run hangs")
				}
				var first *ShapeError
				for rank, err := range errs {
					var se *ShapeError
					if !errors.As(err, &se) || !strings.Contains(err.Error(), "outside destination shape [8 8]") ||
						!strings.Contains(err.Error(), "collio: transform maps (gi,gj)=(") {
						t.Fatalf("rank %d: want the out-of-range transform error, got %v", rank, err)
					}
					if first == nil {
						first = se
					} else if *se != *first {
						t.Fatalf("rank %d returned %v, rank 0 %v", rank, se, first)
					}
				}
				if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
					t.Fatalf("arena leak on the error path: %+v", s)
				}
				for _, file := range fs.Names() {
					if strings.Contains(file, "collio.scratch") {
						t.Fatalf("scratch file %s left behind", file)
					}
				}
			})
		}
	}
}

// BenchmarkRedistributeTwoPhase is the redistribution of the benchmark's
// transpose_real job on its own: N=1024 over 8 ranks, memElems 16·1024, so
// the receiver spills 16 rounds of pairs to scratch and flushes 32
// windows per rank. The files are made once; an op opens them, runs the
// collective and closes them, the way a warm server's job finds the arena
// — so allocs/op is what a redistribution costs in steady state.
func BenchmarkRedistributeTwoPhase(b *testing.B) {
	benchTransposeTwoPhase(b, colBlock("dst"))
}

// BenchmarkRedistributeTwoPhaseCyclic is the same transpose into CYCLIC
// destination columns, where every source row of a column lands in its
// own destination column.
func BenchmarkRedistributeTwoPhaseCyclic(b *testing.B) {
	benchTransposeTwoPhase(b, func(n, p int) (*dist.Array, error) {
		return dist.NewArray("dst", dist.NewCollapsed(n), dist.NewCyclic(n, p))
	})
}

func benchTransposeTwoPhase(b *testing.B, mkDst func(n, p int) (*dist.Array, error)) {
	op, check := transposeTwoPhase(b, mkDst)
	op() // warm-up: the arena holds every class the op takes
	b.SetBytes(transposeN * transposeN * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	check()
}

// maxTwoPhaseAllocs is what one redistribution at the benchmark's
// geometry may allocate in steady state, the machine's run included.
// testing.AllocsPerRun counts one more than the benchmark's allocs/op
// (156 at -cpu 1); a receiver that made its per-window counts allocated
// 165 here.
const maxTwoPhaseAllocs = 157

// TestTwoPhaseRedistributionAllocs pins BenchmarkRedistributeTwoPhase's
// allocations per op: the block list and the per-window counts live in
// the pooled schedule, so a warm redistribution allocates no more than
// maxTwoPhaseAllocs times.
func TestTwoPhaseRedistributionAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the schedule pool drops a random share of releases under the race detector")
	}
	op, check := transposeTwoPhase(t, colBlock("dst"))
	op()
	if allocs := testing.AllocsPerRun(3, op); allocs > maxTwoPhaseAllocs {
		t.Errorf("a warm two-phase transpose allocates %v times, want at most %d", allocs, maxTwoPhaseAllocs)
	}
	check()
}

const transposeN = 1024

// transposeTwoPhase makes the source and destination files of
// transpose_real's redistribution — N=1024 over 8 ranks, memElems 16·1024
// — and returns op, which opens them, runs the collective and closes
// them, and check, which verifies the destination.
func transposeTwoPhase(tb testing.TB, mkDst func(n, p int) (*dist.Array, error)) (op, check func()) {
	const n, p, memElems = transposeN, 8, 16 * 1024
	srcMap, err := colBlock("src")(n, p)
	if err != nil {
		tb.Fatal(err)
	}
	dstMap, err := mkDst(n, p)
	if err != nil {
		tb.Fatal(err)
	}
	fs := iosim.NewMemFS()
	run := func(body func(proc *mp.Proc, disk *iosim.Disk) error) {
		tb.Helper()
		if _, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
			return body(proc, iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO))
		}); err != nil {
			tb.Fatal(err)
		}
	}
	run(func(proc *mp.Proc, disk *iosim.Disk) error {
		sideFor(tb, disk, srcMap, proc.Rank(), valueAt).LAF.Close()
		sideFor(tb, disk, dstMap, proc.Rank(), nil).LAF.Close()
		return nil
	})
	open := func(disk *iosim.Disk, dm *dist.Array, rank int) (Side, error) {
		shape := dm.LocalShape(rank)
		laf, err := disk.OpenLAF(fmt.Sprintf("%s.p%d.laf", dm.Name, rank), int64(shape[0]*shape[1]))
		return Side{Map: dm, LAF: laf, Rank: rank, Rows: shape[0], Cols: shape[1]}, err
	}
	op = func() {
		run(func(proc *mp.Proc, disk *iosim.Disk) error {
			src, err := open(disk, srcMap, proc.Rank())
			if err != nil {
				return err
			}
			defer src.LAF.Close()
			dst, err := open(disk, dstMap, proc.Rank())
			if err != nil {
				return err
			}
			defer dst.LAF.Close()
			return Redistribute(proc, src, dst, memElems, 30, Transpose(), TwoPhase)
		})
	}
	check = func() {
		run(func(proc *mp.Proc, disk *iosim.Disk) error {
			dst, err := open(disk, dstMap, proc.Rank())
			if err != nil {
				return err
			}
			defer dst.LAF.Close()
			return checkSide(dst, func(gi, gj int) float64 { return valueAt(gj, gi) })
		})
	}
	return op, check
}

// TestSegments pins the cut of a rank's local rows into runs of the swept
// destination dimension.
func TestSegments(t *testing.T) {
	all := func(n int) []int32 { // a collapsed source dimension: every row is local
		g := make([]int32, n)
		for i := range g {
			g[i] = int32(i)
		}
		return g
	}
	table := func(m dist.Map) *dist.DimTable {
		a, err := dist.NewArray("t", m, dist.NewCollapsed(1))
		if err != nil {
			t.Fatal(err)
		}
		return &a.Tables2().Dim[0]
	}
	cases := []struct {
		name  string
		rowG  []int32
		swept dist.Map
		want  []seg
	}{
		{"block: one segment per owner, the last one ragged", all(10), dist.NewBlock(10, 4),
			[]seg{{0, 3, 0, 0, 1}, {3, 3, 1, 0, 1}, {6, 3, 2, 0, 1}, {9, 1, 3, 0, 1}}},
		{"cyclic: a segment per row", all(5), dist.NewCyclic(5, 2),
			[]seg{{0, 1, 0, 0, 1}, {1, 1, 1, 0, 1}, {2, 1, 0, 1, 1}, {3, 1, 1, 1, 1}, {4, 1, 0, 2, 1}}},
		{"cyclic(3): a segment per block, the tail cut", all(11), dist.NewBlockCyclic(11, 2, 3),
			[]seg{{0, 3, 0, 0, 1}, {3, 3, 1, 0, 1}, {6, 3, 0, 3, 1}, {9, 2, 1, 3, 1}}},
		{"collapsed: one segment", all(7), dist.NewCollapsed(7),
			[]seg{{0, 7, 0, 0, 1}}},
		{"source rows cyclic like the destination's: one segment", []int32{1, 4, 7, 10}, dist.NewCyclic(12, 3),
			[]seg{{0, 4, 1, 0, 1}}},
		{"source rows cyclic(2) into block: cut where the rows jump", []int32{2, 3, 6, 7}, dist.NewBlock(8, 2),
			[]seg{{0, 2, 0, 2, 1}, {2, 2, 1, 2, 1}}},
		{"an empty local section", nil, dist.NewBlock(6, 3), []seg{}},
	}
	for _, tc := range cases {
		if got := segments(nil, tc.rowG, table(tc.swept)); !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

// mappingKinds are the regular mappings of an r x c array over p
// processors the routing property below draws from — the families of
// dist's TestTables2AgainstOracle: BLOCK, CYCLIC and CYCLIC(k) along
// either dimension with the other collapsed (ragged and empty last
// blocks come with the random extents), and two-dimensional grids.
var mappingKinds = []func(name string, r, c, p, k int) (*dist.Array, error){
	func(name string, r, c, p, k int) (*dist.Array, error) {
		return dist.NewArray(name, dist.NewCollapsed(r), dist.NewBlock(c, p))
	},
	func(name string, r, c, p, k int) (*dist.Array, error) {
		return dist.NewArray(name, dist.NewBlock(r, p), dist.NewCollapsed(c))
	},
	func(name string, r, c, p, k int) (*dist.Array, error) {
		return dist.NewArray(name, dist.NewCollapsed(r), dist.NewCyclic(c, p))
	},
	func(name string, r, c, p, k int) (*dist.Array, error) {
		return dist.NewArray(name, dist.NewCyclic(r, p), dist.NewCollapsed(c))
	},
	func(name string, r, c, p, k int) (*dist.Array, error) {
		return dist.NewArray(name, dist.NewCollapsed(r), dist.NewBlockCyclic(c, p, k))
	},
	func(name string, r, c, p, k int) (*dist.Array, error) {
		return dist.NewArray(name, dist.NewBlockCyclic(r, p, k), dist.NewCollapsed(c))
	},
	func(name string, r, c, p, k int) (*dist.Array, error) {
		p0, p1 := gridOf(p)
		return dist.NewGridArray(name, dist.NewGrid(p0, p1), dist.NewBlock(r, p0), dist.NewBlock(c, p1))
	},
	func(name string, r, c, p, k int) (*dist.Array, error) {
		p0, p1 := gridOf(p)
		return dist.NewGridArray(name, dist.NewGrid(p0, p1), dist.NewCyclic(r, p0), dist.NewBlockCyclic(c, p1, k))
	},
}

// gridOf factors p into the most nearly square grid.
func gridOf(p int) (p0, p1 int) {
	p0 = 1
	for f := 2; f*f <= p; f++ {
		if p%f == 0 {
			p0 = f
		}
	}
	return p0, p / p0
}

// elementRoute is the oracle the schedule is held to: the wire as it was
// when every message carried (linear index, value) pairs — source rank q's
// round k, element by element, as the pairs it sent each owner in the
// order it sent them, each looked up in the destination's tables.
func elementRoute(src *dist.Array, dstT *dist.Tables2, q, k, memElems int,
	fn func(gi, gj int) (int, int), fill func(gi, gj int) float64) [][]float64 {
	pairs := make([][]float64, len(dstT.Rows))
	rowG, colG := src.LocalGlobals(q)
	w := SrcSlabWidth(memElems, len(rowG), len(colG))
	if len(rowG) == 0 || k*w >= len(colG) {
		return pairs
	}
	for _, gj := range colG[k*w : min((k+1)*w, len(colG))] {
		for _, gi := range rowG {
			di, dj := fn(int(gi), int(gj))
			owner := dstT.Dim[0].Own[di] + dstT.Dim[1].Own[dj]
			lin := int(dstT.Dim[1].Loc[dj])*int(dstT.Rows[owner]) + int(dstT.Dim[0].Loc[di])
			pairs[owner] = append(pairs[owner], float64(lin), fill(int(gi), int(gj)))
		}
	}
	return pairs
}

// TestRunRouteEqualsElementRoute is the property the values-only wire
// stands on: over random shapes, machine sizes, memory budgets and pairs
// of regular mappings, under the identity, the transpose and funcs (a
// row-reversing one among them, whose runs step backwards), zipping the
// destination indices of the receiver's schedule for every source rank
// and round with the values the sender really put on the wire reproduces
// the element route's (index, value) pair stream bit for bit — and the
// destination comes out right.
func TestRunRouteEqualsElementRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		p := []int{1, 2, 3, 4, 6}[rng.Intn(5)]
		r, c, k := 1+rng.Intn(14), 1+rng.Intn(14), 1+rng.Intn(4)
		memElems := 1 + rng.Intn(2*r*c)
		transposed, reversed := rng.Intn(2) == 1, rng.Intn(3) == 0
		dr, dc := r, c
		if transposed {
			dr, dc = c, r
		}
		fn := func(gi, gj int) (int, int) {
			if transposed {
				gi, gj = gj, gi
			}
			if reversed {
				gi = dr - 1 - gi
			}
			return gi, gj
		}
		want := func(gi, gj int) float64 {
			if reversed {
				gi = dr - 1 - gi
			}
			if transposed {
				gi, gj = gj, gi
			}
			return valueAt(gi, gj)
		}
		forms := map[string]IndexMap{"func": Func(fn)}
		switch {
		case reversed:
		case transposed:
			forms["runs"] = Transpose()
		default:
			forms["runs"] = IndexMap{}
		}
		srcKind, dstKind := rng.Intn(len(mappingKinds)), rng.Intn(len(mappingKinds))
		label := fmt.Sprintf("trial %d: %dx%d, p=%d, k=%d, mem=%d, kinds %d->%d, transposed=%v, reversed=%v",
			trial, r, c, p, k, memElems, srcKind, dstKind, transposed, reversed)
		srcMap, err := mappingKinds[srcKind]("src", r, c, p, k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		dstMap, err := mappingKinds[dstKind]("dst", dr, dc, p, k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		dstT := dstMap.Tables2()
		for form, m := range forms {
			// sent[q][k][o] is what rank q put on the wire to o in round k;
			// idx[o][k][q] the indices o's schedule gives those values.
			sent := make([][][][]float64, p)
			idx := make([][][][]int, p)
			_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
				me := proc.Rank()
				disk := iosim.NewDisk(iosim.NewMemFS(), proc.Config(), nil)
				src := sideFor(t, disk, srcMap, me, valueAt)
				dst := sideFor(t, disk, dstMap, me, nil)
				defer discard(disk, src, dst)
				inspecting := m.fn != nil
				exchange := func(tag int, parts [][]float64) [][]float64 {
					if inspecting {
						inspecting = false
					} else {
						round := make([][]float64, p)
						for o, part := range parts {
							round[o] = slices.Clone(part)
						}
						sent[me] = append(sent[me], round)
					}
					return proc.AllToAllOwned(tag, parts)
				}
				if err := redistribute(proc, src, dst, memElems, 30, m, Direct, exchange); err != nil {
					return err
				}
				if err := checkSide(dst, want); err != nil {
					return err
				}
				sched := newSchedule(me, p, srcMap, dstT, dst, memElems, m)
				if m.fn != nil {
					if err := sched.inspect(proc.Cache(), m.fn, [2]int{dr, dc}, 31, proc.AllToAllOwned); err != nil {
						return err
					}
				}
				for k := range sent[me] {
					idx[me] = append(idx[me], make([][]int, p))
					for q := 0; q < p; q++ {
						idx[me][k][q] = linears(sched.blocks(q, k, me), dst.Rows)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s, %s form: %v", label, form, err)
			}
			for q := 0; q < p; q++ {
				for k := range sent[q] {
					oracle := elementRoute(srcMap, dstT, q, k, memElems, fn, valueAt)
					for o := 0; o < p; o++ {
						vals, lins := sent[q][k][o], idx[o][k][q]
						if len(vals) != len(lins) {
							t.Fatalf("%s, %s form: %d -> %d round %d: %d values on the wire, %d indices in the schedule",
								label, form, q, o, k, len(vals), len(lins))
						}
						var zipped []float64
						for i, v := range vals {
							zipped = append(zipped, float64(lins[i]), v)
						}
						var want []float64
						if o < len(oracle) {
							want = oracle[o]
						}
						if !slices.Equal(bitsOf(zipped), bitsOf(want)) {
							t.Fatalf("%s, %s form: %d -> %d round %d: schedule and wire give\n%v\nthe element route\n%v",
								label, form, q, o, k, zipped, want)
						}
					}
				}
			}
		}
	}
}

func bitsOf(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestTransposeBetweenMismatchedShapes: a transpose into an array that is
// not the source's shape swapped fails with the out-of-shape error on
// every rank, structured or as a func, before any rank has entered an
// exchange — nobody is left parked in a collective waiting for a rank
// that has already returned.
func TestTransposeBetweenMismatchedShapes(t *testing.T) {
	const r, c, p = 8, 12, 4
	srcMap, err := dist.NewArray("src", dist.NewCollapsed(r), dist.NewBlock(c, p))
	if err != nil {
		t.Fatal(err)
	}
	dstMap, err := dist.NewArray("dst", dist.NewCollapsed(r), dist.NewBlock(c, p)) // not c x r
	if err != nil {
		t.Fatal(err)
	}
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for form, m := range (redistCase{transpose: true}).indexMaps() {
		for _, method := range []Method{Direct, Sieved, TwoPhase} {
			bufpool.ResetStats()
			var exchanges atomic.Int32
			errs := make([]error, p)
			done := make(chan error, 1)
			go func() {
				_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
					disk := iosim.NewDisk(iosim.NewMemFS(), proc.Config(), nil)
					src := sideFor(t, disk, srcMap, proc.Rank(), valueAt)
					dst := sideFor(t, disk, dstMap, proc.Rank(), nil)
					defer discard(disk, src, dst)
					exchange := func(tag int, parts [][]float64) [][]float64 {
						exchanges.Add(1)
						return proc.AllToAllOwned(tag, parts)
					}
					errs[proc.Rank()] = redistribute(proc, src, dst, 2*r, 34, m, method, exchange)
					return nil
				})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("routed by %s, %v: the run hangs", form, method)
			}
			for rank, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "outside destination shape [8 12]") {
					t.Errorf("routed by %s, %v: rank %d got %v, want the out-of-shape error", form, method, rank, err)
				}
			}
			if n := exchanges.Load(); n != 0 {
				t.Errorf("routed by %s, %v: %d ranks entered an exchange", form, method, n)
			}
			if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
				t.Errorf("routed by %s, %v: arena out of balance: %+v", form, method, s)
			}
		}
	}
}

// BenchmarkRoute is the sender's fill of one slab on its own — 8 columns
// of 1,024 rows, a transpose_real round — from the schedule into exactly
// sized buckets, into a BLOCK and into a CYCLIC(4) destination. ns/elem is
// the number to read.
func BenchmarkRoute(b *testing.B) {
	const n, p, w = 1024, 8, 8
	srcMap, err := colBlock("src")(n, p)
	if err != nil {
		b.Fatal(err)
	}
	dsts := map[string]dist.Map{"block": dist.NewBlock(n, p), "cyclic4": dist.NewBlockCyclic(n, p, 4)}
	for _, name := range []string{"block", "cyclic4"} {
		dstMap, err := dist.NewArray("dst", dist.NewCollapsed(n), dsts[name])
		if err != nil {
			b.Fatal(err)
		}
		sched := newSchedule(0, p, srcMap, dstMap.Tables2(), Side{Rows: n, Cols: n / p}, 2*n*w, Transpose())
		data := make([]float64, n*w)
		for i := range data {
			data[i] = float64(i)
		}
		parts := make([][]float64, p)
		var bufs bufpool.Cache
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched.fill(&bufs, parts, data, 0)
				releaseBuckets(&bufs, parts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*w), "ns/elem")
		})
		bufs.Flush()
	}
}

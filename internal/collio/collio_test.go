package collio

import (
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
	for _, tc := range redistCases() {
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

	spill, err := newTwoPhaseReceiver(side, 16) // 2*64 > 16: must spill
	if err != nil {
		t.Fatal(err)
	}
	defer spill.cleanup()
	if spill.inMem || spill.scratch == nil {
		t.Fatalf("budget 16 for a 64-element local array must spill (inMem=%v)", spill.inMem)
	}
	if spill.winW != 1 { // quarter budget (4 elems) over 8 rows clamps to 1 column
		t.Fatalf("window width %d, want 1", spill.winW)
	}

	mem, err := newTwoPhaseReceiver(side, 128) // 2*64 <= 128: in memory
	if err != nil {
		t.Fatal(err)
	}
	defer mem.cleanup()
	if !mem.inMem || mem.scratch != nil {
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

func TestCoalescePairsLastWriterWins(t *testing.T) {
	r := &runReceiver{dst: Side{Rows: 5, Cols: 1}}
	// Two sources; index 3 arrives twice.
	if err := r.coalescePairs([][]float64{{3, 30, 4, 40}, {3, 31, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	// Sorted stably: 0, 3(first), 3(second), 4. The duplicate 3 starts a
	// fresh chunk, so writing chunks in order leaves 31 at index 3.
	if len(r.chunks) != 3 {
		t.Fatalf("chunks = %v, want 3 entries", r.chunks)
	}
	applied := make([]float64, 5)
	i := 0
	for _, c := range r.chunks {
		for k := 0; k < c.Len; k++ {
			applied[int(c.Off)+k] = r.vals[i]
			i++
		}
	}
	if applied[3] != 31 || applied[4] != 40 || applied[0] != 1 {
		t.Fatalf("applied = %v", applied)
	}
	if err := r.coalescePairs([][]float64{{5, 50}}); err == nil || !strings.Contains(err.Error(), "outside local array") {
		t.Fatalf("index past the local array: got %v", err)
	}
	if err := r.coalescePairs([][]float64{{-1, 50}}); err == nil || !strings.Contains(err.Error(), "outside local array") {
		t.Fatalf("negative index: got %v", err)
	}
}

// referenceCoalesce is the definition coalescePairs must reproduce: the
// round's pairs in arrival order, sorted by index with the reflection-
// based stable sort it replaced, then merged into runs.
func referenceCoalesce(incoming [][]float64) ([]iosim.Chunk, []float64) {
	type pair struct {
		lin int
		val float64
	}
	var pairs []pair
	for _, in := range incoming {
		for i := 0; i+1 < len(in); i += 2 {
			pairs = append(pairs, pair{lin: int(in[i]), val: in[i+1]})
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

// FuzzCoalescePairs compares coalescePairs with referenceCoalesce on
// arbitrary rounds: each input byte is one pair (low seven bits the
// destination index, so duplicates and runs are common; the top bit
// starts the next source's payload), values number the arrivals.
func FuzzCoalescePairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 0x83, 0})                             // the last-writer-wins case above
	f.Add([]byte{0, 1, 2, 3, 0x84, 5, 6, 0x87})              // one run across three sources
	f.Add([]byte{9, 9, 9, 0x89, 9, 8, 10})                   // one index five times
	f.Add([]byte{127, 0x80, 0xff, 64, 0xc0, 1})              // both ends of the local array
	f.Add([]byte{0, 64, 1, 65, 2, 66, 0x80, 32, 96, 33, 97}) // a transpose's strided runs
	r := &runReceiver{dst: Side{Rows: 16, Cols: 8}}          // reused, as across rounds
	f.Fuzz(func(t *testing.T, data []byte) {
		incoming := [][]float64{nil}
		for i, b := range data {
			if b&0x80 != 0 {
				incoming = append(incoming, nil)
			}
			last := len(incoming) - 1
			incoming[last] = append(incoming[last], float64(b&0x7f), float64(i)+0.5)
		}
		if err := r.coalescePairs(incoming); err != nil {
			t.Fatal(err)
		}
		wantChunks, wantVals := referenceCoalesce(incoming)
		if !slices.Equal(r.chunks, wantChunks) {
			t.Fatalf("chunks %v, reference %v", r.chunks, wantChunks)
		}
		if !slices.Equal(r.vals, wantVals) {
			t.Fatalf("values %v, reference %v", r.vals, wantVals)
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
// loop: a peer delivering a payload that is not index/value pairs fails
// the redistribution, and every arena buffer of the round — the bad
// payload and the not-yet-consumed remainder — is still returned to the
// pool (checked mode counts every Get against a Put).
func TestMalformedPayloadReleasesRound(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	const tag = 31
	_, err := mp.Run(sim.Delta(2), func(proc *mp.Proc) error {
		if proc.Rank() == 1 {
			// Mimic one round of the protocol by hand, but ship an
			// odd-length payload to rank 0 (AllToAll copies parts, so a
			// plain slice is fine here).
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
		if rerr == nil || !strings.Contains(rerr.Error(), "index/value pairs") {
			return fmt.Errorf("want malformed-payload failure, got %v", rerr)
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
// result: an index pair outside the destination's global shape is an
// error naming the element, raised before the round's shuffle, for every
// method — not a garbage linear index on the wire. The run must come
// back (no rank left parked in the collective, whether every rank hits
// the bad element or a single one does) with the arena balanced.
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
					return Redistribute(proc, src, dst, n, 33, Func(transform), method)
				})
				if err == nil || !strings.Contains(err.Error(), "outside destination shape [8 8]") ||
					!strings.Contains(err.Error(), "collio: transform maps (gi,gj)=(") {
					t.Fatalf("want the out-of-range transform error, got %v", err)
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
	const n, p, memElems = 1024, 8, 16 * 1024
	srcMap, err := colBlock("src")(n, p)
	if err != nil {
		b.Fatal(err)
	}
	dstMap, err := colBlock("dst")(n, p)
	if err != nil {
		b.Fatal(err)
	}
	fs := iosim.NewMemFS()
	run := func(body func(proc *mp.Proc, disk *iosim.Disk) error) {
		b.Helper()
		if _, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
			return body(proc, iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO))
		}); err != nil {
			b.Fatal(err)
		}
	}
	run(func(proc *mp.Proc, disk *iosim.Disk) error {
		sideFor(b, disk, srcMap, proc.Rank(), valueAt).LAF.Close()
		sideFor(b, disk, dstMap, proc.Rank(), nil).LAF.Close()
		return nil
	})
	open := func(disk *iosim.Disk, dm *dist.Array, rank int) (Side, error) {
		shape := dm.LocalShape(rank)
		laf, err := disk.OpenLAF(fmt.Sprintf("%s.p%d.laf", dm.Name, rank), int64(shape[0]*shape[1]))
		return Side{Map: dm, LAF: laf, Rank: rank, Rows: shape[0], Cols: shape[1]}, err
	}
	op := func(proc *mp.Proc, disk *iosim.Disk) error {
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
	}
	run(op) // warm-up: the arena holds every class the op takes
	b.SetBytes(n * n * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(op)
	}
	b.StopTimer()
	run(func(proc *mp.Proc, disk *iosim.Disk) error {
		dst, err := open(disk, dstMap, proc.Rank())
		if err != nil {
			return err
		}
		defer dst.LAF.Close()
		return checkSide(dst, func(gi, gj int) float64 { return valueAt(gj, gi) })
	})
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
			[]seg{{0, 3, 0, 0}, {3, 3, 1, 0}, {6, 3, 2, 0}, {9, 1, 3, 0}}},
		{"cyclic: a segment per row", all(5), dist.NewCyclic(5, 2),
			[]seg{{0, 1, 0, 0}, {1, 1, 1, 0}, {2, 1, 0, 1}, {3, 1, 1, 1}, {4, 1, 0, 2}}},
		{"cyclic(3): a segment per block, the tail cut", all(11), dist.NewBlockCyclic(11, 2, 3),
			[]seg{{0, 3, 0, 0}, {3, 3, 1, 0}, {6, 3, 0, 3}, {9, 2, 1, 3}}},
		{"collapsed: one segment", all(7), dist.NewCollapsed(7),
			[]seg{{0, 7, 0, 0}}},
		{"source rows cyclic like the destination's: one segment", []int32{1, 4, 7, 10}, dist.NewCyclic(12, 3),
			[]seg{{0, 4, 1, 0}}},
		{"source rows cyclic(2) into block: cut where the rows jump", []int32{2, 3, 6, 7}, dist.NewBlock(8, 2),
			[]seg{{0, 2, 0, 2}, {2, 2, 1, 2}}},
		{"an empty local section", nil, dist.NewBlock(6, 3), []seg{}},
	}
	for _, tc := range cases {
		if got := segments(tc.rowG, table(tc.swept)); !slices.Equal(got, tc.want) {
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

// TestRunRouteEqualsElementRoute is the property the run route stands on:
// over random shapes, machine sizes, memory budgets and pairs of regular
// mappings, under the identity and the transpose, every bucket of every
// round holds bit for bit what the element route puts there — and the
// destination comes out right.
func TestRunRouteEqualsElementRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		p := []int{1, 2, 3, 4, 6}[rng.Intn(5)]
		r, c, k := 1+rng.Intn(14), 1+rng.Intn(14), 1+rng.Intn(4)
		memElems := 1 + rng.Intn(2*r*c)
		tc := redistCase{n: r, p: p, memElems: memElems, transpose: rng.Intn(2) == 1, wantAt: valueAt}
		dr, dc := r, c
		if tc.transpose {
			dr, dc = c, r
			tc.wantAt = func(gi, gj int) float64 { return valueAt(gj, gi) }
		}
		srcKind, dstKind := rng.Intn(len(mappingKinds)), rng.Intn(len(mappingKinds))
		label := fmt.Sprintf("trial %d: %dx%d, p=%d, k=%d, mem=%d, kinds %d->%d, transpose=%v",
			trial, r, c, p, k, memElems, srcKind, dstKind, tc.transpose)
		srcMap, err := mappingKinds[srcKind]("src", r, c, p, k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		dstMap, err := mappingKinds[dstKind]("dst", dr, dc, p, k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// wire[form][rank] is the sequence of buckets the rank handed to
		// the exchange, round by round and owner by owner, as bit patterns.
		wire := make(map[string][][][]uint64)
		for form, m := range tc.indexMaps() {
			sent := make([][][]uint64, p)
			_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
				disk := iosim.NewDisk(iosim.NewMemFS(), proc.Config(), nil)
				src := sideFor(t, disk, srcMap, proc.Rank(), valueAt)
				dst := sideFor(t, disk, dstMap, proc.Rank(), nil)
				defer discard(disk, src, dst)
				exchange := func(tag int, parts [][]float64) [][]float64 {
					for _, part := range parts {
						bits := make([]uint64, len(part))
						for i, v := range part {
							bits[i] = math.Float64bits(v)
						}
						sent[proc.Rank()] = append(sent[proc.Rank()], bits)
					}
					return proc.AllToAllOwned(tag, parts)
				}
				if err := redistribute(proc, src, dst, memElems, 30, m, Direct, exchange); err != nil {
					return err
				}
				return checkSide(dst, tc.wantAt)
			})
			if err != nil {
				t.Fatalf("%s, routed by %s: %v", label, form, err)
			}
			wire[form] = sent
		}
		for rank := 0; rank < p; rank++ {
			runs, elems := wire["runs"][rank], wire["func"][rank]
			if len(runs) != len(elems) {
				t.Fatalf("%s: rank %d handed over %d buckets by runs, %d by elements", label, rank, len(runs), len(elems))
			}
			for i := range runs {
				if !slices.Equal(runs[i], elems[i]) {
					t.Fatalf("%s: rank %d, round %d, owner %d: bucket by runs\n%x\nby elements\n%x",
						label, rank, i/p, i%p, runs[i], elems[i])
				}
			}
		}
	}
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

// BenchmarkRoute is the sender's routing of one slab on its own — 8
// columns of 1,024 rows, a transpose_real round — into buckets that are
// already as large as they get: by runs against element by element, into
// a BLOCK and into a CYCLIC(4) destination. ns/elem is the number to read.
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
		dstT := dstMap.Tables2()
		rowG, colG := srcMap.LocalGlobals(0)
		colG = colG[:w]
		data := make([]float64, n*w)
		for i := range data {
			data[i] = float64(i)
		}
		segs := segments(rowG, &dstT.Dim[1])
		parts := make([][]float64, p)
		routes := map[string]func(){
			"runs": func() { routeRuns(parts, data, n, colG, segs, dstT, true) },
			"elems": func() {
				if err := routeElems(parts, data, rowG, colG, dstT, swap, [2]int{n, n}); err != nil {
					b.Fatal(err)
				}
			},
		}
		for _, form := range []string{"runs", "elems"} {
			b.Run(name+"/"+form, func(b *testing.B) {
				route := routes[form]
				route() // grow the buckets
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for q := range parts {
						parts[q] = parts[q][:0]
					}
					route()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*w), "ns/elem")
			})
		}
		releaseBuckets(parts)
	}
}

package gaxpy

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/iosim"

	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

func TestClosedFormMatchesMatMul(t *testing.T) {
	// The closed form must equal the brute-force product.
	const n = 24
	a := matrix.New(n, n).Fill(FillA)
	b := matrix.New(n, n).Fill(FillB)
	c := matrix.Mul(a, b)
	want := CExpected(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if c.At(i, j) != want(i, j) {
				t.Fatalf("closed form wrong at (%d,%d): %g vs %g", i, j, c.At(i, j), want(i, j))
			}
		}
	}
}

// TestInputsMatchFills holds the separable inputs to the element
// oracles bit for bit, over whole arrays of three sizes.
func TestInputsMatchFills(t *testing.T) {
	for _, tc := range []struct {
		name   string
		input  oocarray.Input
		oracle func(i, j int) float64
	}{{"A", InputA(), FillA}, {"B", InputB(), FillB}} {
		if tc.input.Add || tc.input.At != nil {
			t.Fatalf("Input%s is not a product of Row and Col", tc.name)
		}
		for _, n := range []int{64, 255, 1024} {
			for i := 0; i < n; i++ {
				r := tc.input.Row(i)
				for j := 0; j < n; j++ {
					got, want := r*tc.input.Col(j), tc.oracle(i, j)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d: Input%s(%d,%d) = %v, Fill%s gives %v", n, tc.name, i, j, got, tc.name, want)
					}
				}
			}
		}
	}
}

func TestAllVariantsCorrect(t *testing.T) {
	for _, tc := range []struct {
		n, p  int
		ratio int // slabs per OCLA
	}{
		{16, 2, 1},
		{16, 4, 2},
		{32, 4, 4},
		{32, 8, 2},
		{48, 4, 3},
		{64, 4, 8},
	} {
		ocla := tc.n * tc.n / tc.p
		slab := ocla / tc.ratio
		cfg := Config{N: tc.n, SlabA: slab, SlabB: slab}
		for name, runner := range Variants {
			t.Run(fmt.Sprintf("%s/n=%d/p=%d/r=%d", name, tc.n, tc.p, tc.ratio), func(t *testing.T) {
				r, err := runner(sim.Delta(tc.p), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.VerifyC(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestVariantsWithUnevenSlabs(t *testing.T) {
	// Different slab sizes for A, B and C (the Table 2 setting).
	cfg := Config{N: 32, SlabA: 32 * 8, SlabB: 32 * 2, SlabC: 32 * 4}
	for name, runner := range Variants {
		r, err := runner(sim.Delta(4), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.VerifyC(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestVariantsWithSievingAndPrefetch(t *testing.T) {
	for _, opts := range []oocarray.Options{
		{Sieve: true},
		{Prefetch: true},
		{Sieve: true, Prefetch: true},
	} {
		cfg := Config{N: 32, SlabA: 32 * 2, SlabB: 32 * 2, Opts: opts}
		r, err := RunRowSlab(sim.Delta(4), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if err := r.VerifyC(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	}
}

func TestGatherCMatchesReference(t *testing.T) {
	const n, p = 24, 4
	cfg := Config{N: n, SlabA: n * 2, SlabB: n * 2}
	r, err := RunRowSlab(sim.Delta(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.GatherC()
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.New(n, n).Fill(FillA)
	b := matrix.New(n, n).Fill(FillB)
	if !matrix.Equal(got, matrix.Mul(a, b)) {
		t.Fatal("gathered C differs from reference product")
	}
}

// TestMeasuredCountsMatchEquations validates Equations 3-6 against the
// counts measured by the tracing I/O layer — the core of experiment E4.
func TestMeasuredCountsMatchEquations(t *testing.T) {
	for _, tc := range []struct{ n, p, ratio int }{
		{64, 4, 8},
		{64, 4, 4},
		{128, 8, 2},
		{128, 16, 1},
	} {
		ocla := int64(tc.n) * int64(tc.n) / int64(tc.p)
		slab := int(ocla) / tc.ratio
		cfg := Config{N: tc.n, SlabA: slab, SlabB: slab, Phantom: true}
		n64, p64, m64 := int64(tc.n), int64(tc.p), int64(slab)

		col, err := RunColumnSlab(sim.Delta(tc.p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		io := col.MaxArrayIO()
		if want := n64 * n64 * n64 / (m64 * p64); io.A.SlabReads != want {
			t.Errorf("n=%d p=%d 1/%d: col-slab T_fetch(A) measured %d, eq3 %d",
				tc.n, tc.p, tc.ratio, io.A.SlabReads, want)
		}
		elemSize := int64(sim.Delta(tc.p).ElemSize)
		if want := n64 * n64 * n64 / p64 * elemSize; io.A.BytesRead != want {
			t.Errorf("n=%d p=%d 1/%d: col-slab T_data(A) measured %d bytes, eq4 %d",
				tc.n, tc.p, tc.ratio, io.A.BytesRead, want)
		}
		// B read once, C written once.
		if io.B.BytesRead != ocla*elemSize {
			t.Errorf("col-slab B bytes %d, want %d", io.B.BytesRead, ocla*elemSize)
		}
		if io.C.BytesWritten != ocla*elemSize {
			t.Errorf("col-slab C bytes %d, want %d", io.C.BytesWritten, ocla*elemSize)
		}

		row, err := RunRowSlab(sim.Delta(tc.p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		io = row.MaxArrayIO()
		if want := n64 * n64 / (m64 * p64); io.A.SlabReads != want {
			t.Errorf("n=%d p=%d 1/%d: row-slab T_fetch(A) measured %d, eq5 %d",
				tc.n, tc.p, tc.ratio, io.A.SlabReads, want)
		}
		if want := n64 * n64 / p64 * elemSize; io.A.BytesRead != want {
			t.Errorf("n=%d p=%d 1/%d: row-slab T_data(A) measured %d bytes, eq6 %d",
				tc.n, tc.p, tc.ratio, io.A.BytesRead, want)
		}
		// B is re-read once per row slab of A.
		if want := ocla * elemSize * (n64 * n64 / (m64 * p64)); io.B.BytesRead != want {
			t.Errorf("row-slab B bytes %d, want %d", io.B.BytesRead, want)
		}
	}
}

func TestRowSlabBeatsColumnSlabInSimulatedTime(t *testing.T) {
	// Table 1's headline on a small instance, in phantom mode.
	const n, p = 256, 4
	ocla := n * n / p
	cfg := Config{N: n, SlabA: ocla / 4, SlabB: ocla / 4, Phantom: true}
	col, err := RunColumnSlab(sim.Delta(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunRowSlab(sim.Delta(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := RunInCore(sim.Delta(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc, tr, ti := col.Stats.ElapsedSeconds(), row.Stats.ElapsedSeconds(), inc.Stats.ElapsedSeconds()
	if !(ti < tr && tr < tc) {
		t.Errorf("expected in-core < row-slab < column-slab, got %.2f / %.2f / %.2f", ti, tr, tc)
	}
}

func TestPhantomMatchesRealAccounting(t *testing.T) {
	// Phantom mode must produce identical statistics to a real run.
	const n, p = 32, 4
	cfg := Config{N: n, SlabA: n * 2, SlabB: n * 2}
	for name, runner := range Variants {
		real, err := runner(sim.Delta(p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		pcfg := cfg
		pcfg.Phantom = true
		ph, err := runner(sim.Delta(p), pcfg)
		if err != nil {
			t.Fatal(err)
		}
		ri, pi := real.Stats.TotalIO(), ph.Stats.TotalIO()
		if ri != pi {
			t.Errorf("%s: phantom IO stats differ:\nreal    %+v\nphantom %+v", name, ri, pi)
		}
		rt, pt := real.Stats.ElapsedSeconds(), ph.Stats.ElapsedSeconds()
		if d := rt - pt; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: phantom elapsed %.6f differs from real %.6f", name, pt, rt)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunRowSlab(sim.Delta(4), Config{N: 30, SlabA: 64, SlabB: 64}); err == nil {
		t.Error("N not divisible by P should fail")
	}
	if _, err := RunRowSlab(sim.Delta(4), Config{N: 32, SlabA: 0, SlabB: 64}); err == nil {
		t.Error("zero slab size should fail")
	}
	if _, err := RunRowSlab(sim.Delta(4), Config{N: -4, SlabA: 4, SlabB: 4}); err == nil {
		t.Error("negative N should fail")
	}
}

func TestVerifyRejectsPhantom(t *testing.T) {
	r, err := RunRowSlab(sim.Delta(2), Config{N: 16, SlabA: 64, SlabB: 64, Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyC(); err == nil {
		t.Error("VerifyC on phantom run should fail")
	}
	if _, err := r.GatherC(); err == nil {
		t.Error("GatherC on phantom run should fail")
	}
}

func TestMoreMemoryForAHelpsRowSlab(t *testing.T) {
	// The Table 2 effect: at equal total memory, giving A the bigger
	// slab beats giving B the bigger slab.
	const n, p = 256, 4
	colElems := n / p * n / 8 // an eighth of the OCLA
	runWith := func(slabA, slabB int) float64 {
		r, err := RunRowSlab(sim.Delta(p), Config{N: n, SlabA: slabA, SlabB: slabB, SlabC: slabA, Phantom: true})
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.ElapsedSeconds()
	}
	bigA := runWith(3*colElems, colElems)
	bigB := runWith(colElems, 3*colElems)
	if bigA >= bigB {
		t.Errorf("favoring A should win: A-heavy %.2fs vs B-heavy %.2fs", bigA, bigB)
	}
}

// budgetFS lets its first budget file operations through, across every
// processor, and fails every later one with err: a disk dying partway
// through a hand runner, which has no fault source of its own.
type budgetFS struct {
	iosim.FS
	left atomic.Int64
	err  error
}

func (f *budgetFS) take() error {
	if f.left.Add(-1) < 0 {
		return f.err
	}
	return nil
}

func (f *budgetFS) Create(name string) (iosim.File, error) {
	if err := f.take(); err != nil {
		return nil, err
	}
	h, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return budgetFile{h, f}, nil
}

func (f *budgetFS) Open(name string) (iosim.File, error) {
	if err := f.take(); err != nil {
		return nil, err
	}
	h, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return budgetFile{h, f}, nil
}

func (f *budgetFS) Remove(name string) error {
	if err := f.take(); err != nil {
		return err
	}
	return f.FS.Remove(name)
}

type budgetFile struct {
	iosim.File
	fs *budgetFS
}

func (f budgetFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.take(); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f budgetFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.take(); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f budgetFile) Truncate(size int64) error {
	if err := f.fs.take(); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func TestDiskFaultFailsCleanly(t *testing.T) {
	// Inject a disk failure partway through the run on every processor's
	// file system: the machine must return an error promptly instead of
	// deadlocking in a collective.
	for _, budget := range []int{0, 5, 50, 500} {
		fs := &budgetFS{FS: iosim.NewMemFS(), err: errors.New("disk died")}
		fs.left.Store(int64(budget))
		cfg := Config{N: 32, SlabA: 64, SlabB: 64, FS: fs}
		done := make(chan error, 1)
		go func() {
			_, err := RunRowSlab(sim.Delta(4), cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("budget %d: expected failure", budget)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("budget %d: machine deadlocked on disk fault", budget)
		}
	}
}

func TestWriteBehindOverlapsAndStaysCorrect(t *testing.T) {
	cfg := Config{N: 64, SlabA: 64 * 2, SlabB: 64 * 2}
	plain, err := RunRowSlab(sim.Delta(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Opts = oocarray.Options{WriteBehind: true}
	wb, err := RunRowSlab(sim.Delta(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.VerifyC(); err != nil {
		t.Fatal(err)
	}
	if wb.Stats.ElapsedSeconds() >= plain.Stats.ElapsedSeconds() {
		t.Errorf("write-behind did not reduce simulated time: %.3f vs %.3f",
			wb.Stats.ElapsedSeconds(), plain.Stats.ElapsedSeconds())
	}
	// Same I/O counts either way.
	pi, wi := plain.Stats.TotalIO(), wb.Stats.TotalIO()
	if pi.SlabWrites != wi.SlabWrites || pi.BytesWritten != wi.BytesWritten {
		t.Errorf("write-behind changed write counts: %+v vs %+v", wi, pi)
	}
}

package oocarray

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// allocArray is the pins' local array: 64 x 16 (n = 64 over four
// processors), filled, with a clock attached so every read charges it.
func allocArray(t *testing.T, opts Options) *Array {
	t.Helper()
	var clock sim.Clock
	arr, _ := newTestArray(t, 64, 4, 1, &clock, opts)
	t.Cleanup(func() { arr.Close() })
	return arr
}

// pinNoAllocs runs pass once to warm up the array's spare headers, chunk
// list and the arena's classes, then requires pass to allocate nothing.
func pinNoAllocs(t *testing.T, what string, pass func() error) {
	t.Helper()
	if err := pass(); err != nil {
		t.Fatal(err)
	}
	var err error
	n := testing.AllocsPerRun(50, func() {
		if e := pass(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("%s allocates %.0f objects per pass, want 0", what, n)
	}
}

// TestSlabCycleDoesNotAllocate pins the slab loop's read side: a
// ReadSlab → Recycle cycle over every slab reuses the header and chunk
// list of the previous one, on column slabs (one chunk) and on row slabs
// (one chunk per column), sieved or not.
func TestSlabCycleDoesNotAllocate(t *testing.T) {
	for _, dim := range []Dim{ByColumn, ByRow} {
		for _, sieve := range []bool{false, true} {
			arr := allocArray(t, Options{Sieve: sieve})
			s := arr.Slabbing(dim, 128)
			if s.Count < 2 {
				t.Fatalf("%v: want several slabs, got %+v", dim, s)
			}
			pinNoAllocs(t, dim.String()+" ReadSlab/Recycle", func() error {
				for i := 0; i < s.Count; i++ {
					icla, err := arr.ReadSlab(s, i)
					if err != nil {
						return err
					}
					arr.Recycle(icla)
				}
				return nil
			})
		}
	}
}

// TestPrefetchReaderDoesNotAllocate pins a prefetching SlabReader pass:
// the delivered slab and the one prefetched behind it cycle through the
// array's spare headers.
func TestPrefetchReaderDoesNotAllocate(t *testing.T) {
	arr := allocArray(t, Options{Prefetch: true})
	r := arr.NewSlabReader(arr.Slabbing(ByColumn, 128))
	pinNoAllocs(t, "prefetching SlabReader pass", func() error {
		r.Reset()
		for {
			icla, ok, err := r.Next()
			if err != nil || !ok {
				return err
			}
			arr.Recycle(icla)
		}
	})
}

// TestNewSlabDoesNotAllocate pins the output side's zeroed slab.
func TestNewSlabDoesNotAllocate(t *testing.T) {
	for _, dim := range []Dim{ByColumn, ByRow} {
		arr := allocArray(t, Options{})
		s := arr.Slabbing(dim, 128)
		pinNoAllocs(t, dim.String()+" NewSlab/Recycle", func() error {
			for i := 0; i < s.Count; i++ {
				icla, err := arr.NewSlab(s, i)
				if err != nil {
					return err
				}
				arr.Recycle(icla)
			}
			return nil
		})
	}
}

// TestReadHaloDoesNotAllocate pins the shifted class's halo read: the
// widened slab and the section read inside it both take spare headers.
func TestReadHaloDoesNotAllocate(t *testing.T) {
	arr := allocArray(t, Options{})
	s := arr.Slabbing(ByColumn, 4*64)
	const left, right = 2, 1
	ghosts := make([]float64, arr.LocalRows()*(left+right))
	pinNoAllocs(t, "ReadHalo/Recycle", func() error {
		for i := 0; i < s.Count; i++ {
			h, err := arr.ReadHalo(s, i, left, right, ghosts)
			if err != nil {
				return err
			}
			arr.Recycle(h)
		}
		return nil
	})
}

// TestDoubleRecycleHandsOutOneHeader: a header recycled twice is pushed
// once, so the next two reads get distinct headers — the first of them
// the recycled one.
func TestDoubleRecycleHandsOutOneHeader(t *testing.T) {
	arr := allocArray(t, Options{})
	s := arr.Slabbing(ByColumn, 128)
	old, err := arr.ReadSlab(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	arr.Recycle(old)
	arr.Recycle(old)
	a, err := arr.ReadSlab(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := arr.ReadSlab(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != old {
		t.Error("the recycled header was not reused")
	}
	if a == b {
		t.Fatal("one recycled header was handed out twice")
	}
	gi, gj := arr.GlobalIndex(5, a.ColOff)
	if a.At(5, 0) != valueAt(gi, gj) {
		t.Errorf("slab 1 reads %g at (5,0), want %g", a.At(5, 0), valueAt(gi, gj))
	}
	arr.Recycle(a)
	arr.Recycle(b)
}

// TestCheckedRecycleStillPanics: under bufpool's checker no header is
// reused, so a read through a recycled slab finds nil Data and panics
// instead of reading whatever slab came next.
func TestCheckedRecycleStillPanics(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	arr := allocArray(t, Options{})
	s := arr.Slabbing(ByColumn, 128)
	stale, err := arr.ReadSlab(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	arr.Recycle(stale)
	next, err := arr.ReadSlab(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Recycle(next)
	if next == stale {
		t.Fatal("checked mode reused a recycled header")
	}
	defer func() {
		if recover() == nil {
			t.Error("a read through a recycled slab did not panic")
		}
	}()
	_ = stale.At(0, 0)
}

// TestArrayReuseMakesNoneOfItAgain: a kept disk, array and reader, made
// again for the next run on the same share (Disk.Reset, Create, Attach)
// after the last one closed and removed its file, show nothing of their
// last run: the file reads as zeros over its whole length, though its
// record and storage are the last file's, and the reader starts at the
// first slab. A run of them — create, a prefetched pass over every slab,
// close, remove — allocates only the file's handle.
func TestArrayReuseMakesNoneOfItAgain(t *testing.T) {
	dm, err := dist.NewArray("a", dist.NewCollapsed(64), dist.NewBlock(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ShareOf(dm, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs := iosim.NewMemFS()
	var (
		clock sim.Clock
		stats trace.IOStats
		disk  iosim.Disk
		arr   Array
		rd    SlabReader
	)
	run := func(fill bool) error {
		disk.Reset(fs, sim.Delta(4), &stats, nil)
		if err := arr.Create(&disk, sh, &clock, Options{Prefetch: true}); err != nil {
			return err
		}
		if fill {
			if err := arr.FillGlobal(valueAt); err != nil {
				return err
			}
		}
		s := arr.Slabbing(ByColumn, 128)
		rd.Attach(&arr, s)
		slabs := 0
		for {
			icla, ok, err := rd.Next()
			if err != nil || !ok {
				if err == nil && slabs != s.Count {
					err = fmt.Errorf("the reader delivered %d of %d slabs", slabs, s.Count)
				}
				arr.Close()
				fs.Remove(sh.File)
				return err
			}
			for _, v := range icla.Data {
				if v != 0 && !fill {
					return fmt.Errorf("slab %d of the array made again reads %v, not zeros", slabs, v)
				}
			}
			slabs++
			arr.Recycle(icla)
		}
	}
	if err := run(true); err != nil {
		t.Fatal(err)
	}
	if err := run(false); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if err := run(false); err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Errorf("a run of a kept array allocates %v objects, want 1 (the file's handle)", n)
	}
}

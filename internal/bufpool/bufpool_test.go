package bufpool

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 20, 20 - minBits}, {1<<20 + 1, 21 - minBits},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestClassOfCap(t *testing.T) {
	cases := []struct{ c, class int }{
		{0, -1}, {63, -1}, {64, 0}, {65, -1}, {96, -1}, {128, 1},
		{1 << 26, 26 - minBits}, {1 << 27, -1},
	}
	for _, c := range cases {
		if got := classOfCap(c.c); got != c.class {
			t.Errorf("classOfCap(%d) = %d, want %d", c.c, got, c.class)
		}
	}
}

func TestGetLenCapAndRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 1024, 1000} {
		b := GetF64(n)
		if len(b) != n {
			t.Fatalf("GetF64(%d): len %d", n, len(b))
		}
		if n > 0 && (cap(b)&(cap(b)-1)) != 0 {
			t.Fatalf("GetF64(%d): cap %d not a power of two", n, cap(b))
		}
		for i := range b {
			b[i] = float64(i)
		}
		PutF64(b)
	}
	for _, n := range []int{0, 1, 100, 4096} {
		b := GetBytes(n)
		if len(b) != n {
			t.Fatalf("GetBytes(%d): len %d", n, len(b))
		}
		PutBytes(b)
	}
}

func TestReuseSameClass(t *testing.T) {
	a := GetF64(100) // class of cap 128
	p := &a[:1][0]
	PutF64(a)
	b := GetF64(128)
	if &b[:1][0] != p {
		t.Errorf("expected the released buffer back (LIFO free list)")
	}
	PutF64(b)
}

func TestForeignBufferDropped(t *testing.T) {
	ResetStats()
	PutF64(make([]float64, 100)) // cap 100: not a class size
	PutF64(nil)
	if s := Snapshot(); s.Drops != 1 || s.Puts != 0 {
		t.Errorf("drops=%d puts=%d, want 1/0", s.Drops, s.Puts)
	}
}

func TestZeroLengthGetDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		b := GetF64(0)
		if b == nil {
			t.Fatal("GetF64(0) returned nil")
		}
		PutF64(b)
	}); n != 0 {
		t.Errorf("GetF64(0)/PutF64: %v allocs/run, want 0", n)
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	// Prime the class so the measured loop only recycles.
	PutF64(GetF64(1024))
	PutBytes(GetBytes(1024))
	if n := testing.AllocsPerRun(100, func() {
		b := GetF64(1000)
		b[0] = 1
		PutF64(b)
		c := GetBytes(1000)
		c[0] = 1
		PutBytes(c)
	}); n != 0 {
		t.Errorf("steady-state Get/Put: %v allocs/run, want 0", n)
	}
}

// A put that finds its free list full goes to the class's sync.Pool, and a
// get that finds the list empty takes it back from there; neither
// allocates. The arena is a private one whose free list the test swaps
// between full and empty around the two calls.
func TestOverflowPutAndGetDoNotAllocate(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool discards puts at random (race detector)")
	}
	var a arena[float64]
	cl := &a.classes[0]
	full := make([][]float64, perClassCap)
	for i := range full {
		full[i] = make([]float64, 1<<minBits)
	}
	b := make([]float64, 1<<minBits)
	p := unsafe.SliceData(b)
	if n := testing.AllocsPerRun(100, func() {
		cl.free = full
		a.put(b, f64Poison)
		cl.free = nil
		b = a.get(10)
	}); n != 0 {
		t.Errorf("overflowing put + get: %v allocs/run, want 0", n)
	}
	if unsafe.SliceData(b) != p || len(b) != 10 || cap(b) != 1<<minBits {
		t.Errorf("get returned %p len %d cap %d, want the overflowed buffer %p len 10 cap %d",
			unsafe.SliceData(b), len(b), cap(b), p, 1<<minBits)
	}
}

// poolDrops reports whether sync.Pool loses what is put into it at random,
// as it does under the race detector.
func poolDrops() bool {
	var pool sync.Pool
	x := new(int)
	for i := 0; i < 64; i++ {
		pool.Put(x)
		if pool.Get() != x {
			return true
		}
	}
	return false
}

func TestCheckedDoubleReleasePanics(t *testing.T) {
	SetChecked(true)
	defer SetChecked(false)
	b := GetF64(64)
	PutF64(b)
	defer func() {
		if recover() == nil {
			t.Errorf("double release did not panic")
		}
	}()
	PutF64(b)
}

func TestCheckedPoisonsReleasedBuffer(t *testing.T) {
	SetChecked(true)
	defer SetChecked(false)
	b := GetF64(64)
	for i := range b {
		b[i] = float64(i)
	}
	alias := b
	PutF64(b)
	for i, v := range alias {
		if !math.IsNaN(v) {
			t.Fatalf("released buffer element %d = %v, want NaN poison", i, v)
		}
	}
	c := GetBytes(64)
	alias2 := c
	PutBytes(c)
	for i, v := range alias2 {
		if v != bytePoison {
			t.Fatalf("released byte buffer element %d = %#x, want %#x", i, v, bytePoison)
		}
	}
}

func TestCheckedReacquireClearsTracking(t *testing.T) {
	SetChecked(true)
	defer SetChecked(false)
	b := GetF64(64)
	PutF64(b)
	c := GetF64(64) // same storage back
	PutF64(c)       // must not be treated as a double release
}

// The free list of a class is bounded in bytes: of 2× the budget released
// at once, half is retained and the rest is the garbage collector's.
func TestFreeListBoundedInBytes(t *testing.T) {
	const size = 4 << 20 // byte class whose bound is the budget, not the count
	budget := classBudgetBytes / size
	if budget >= perClassCap {
		t.Fatalf("class of %d bytes is bounded by count, not bytes", size)
	}
	// One transpose_real job's file storage must fit the lists it lands on.
	if a, b := freeListCap(1<<20, 1), freeListCap(2<<20, 1); a < 16 || b < 8 {
		t.Fatalf("free lists hold %d x 1 MiB and %d x 2 MiB, want at least 16 and 8", a, b)
	}
	if n := freeListCap(1<<maxBits, 8); n != 0 {
		t.Fatalf("the top float64 class retains %d buffers, want 0", n)
	}
	// Never written, so the 2× budget stays virtual memory.
	bufs := make([][]byte, 2*budget)
	for i := range bufs {
		bufs[i] = GetBytes(size)
	}
	for _, b := range bufs {
		PutBytes(b)
	}
	clear(bufs)
	// Two collections empty the overflow pool (primary, then victim cache).
	runtime.GC()
	runtime.GC()
	ResetStats()
	for i := range bufs {
		bufs[i] = GetBytes(size)
	}
	if s := Snapshot(); s.Gets != int64(2*budget) || s.Hits != int64(budget) {
		t.Errorf("burst of %d gets hit %d retained buffers, want %d", s.Gets, s.Hits, budget)
	}
}

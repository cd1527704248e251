// Package bufpool is the size-classed buffer arena behind the
// simulator's hot paths: message payloads (internal/mp), slab staging
// (internal/iosim, internal/oocarray), shuffle assembly
// (internal/collio) and parity scratch (internal/parity). The paper's
// data-movement discipline — reuse large buffers instead of re-creating
// them per transfer — applied to the host heap.
//
// Buffers live in power-of-two size classes (64 elements up). Each class
// keeps a small bounded free list under a mutex — the steady-state path,
// which neither allocates nor loses buffers to the garbage collector, so
// AllocsPerRun pins hold — and overflows into a sync.Pool, which lets the
// GC trim idle memory. The pool holds a buffer's element pointer, which
// an interface carries without boxing, so overflowing allocates nothing
// either: the class fixes the capacity, and get rebuilds the slice.
//
// The free list's bound is in bytes, because the arena also backs file
// storage (iosim.MemFS) and multi-megabyte classes are routine: a class
// retains at most 64 buffers or 64 MiB, whichever is smaller. That is 64
// buffers up to 1 MiB, 32 at 2 MiB, one at 64 MiB and none above; summed
// over every class of both element types the lists can pin just under
// 1 GiB, and only after a process has had that much live at once. What a
// list refuses goes to the sync.Pool and is the GC's to reclaim.
//
// Message payloads reach the arena through a front: every simulated rank
// owns a Cache (cache.go), a bounded stack of float64 buffers per small
// class that it takes from and releases to with no lock and no atomic
// update, spilling to the arena when a stack is full, falling through to
// it when one is empty, and flushed to it when the rank returns. The
// shared class mutex and the counters below then see only what the
// caches cannot balance, and Gets == Puts + Drops still holds once every
// cache is flushed. Code that has no rank uses the arena directly.
//
// A buffer obtained from Get* has arbitrary contents. Callers either
// overwrite every element or clear() explicitly where they previously
// relied on make's zeroing; SetChecked poisons released buffers to make
// violations loud in tests.
package bufpool

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// minBits sizes the smallest class at 64 elements; smaller requests
	// round up (a 512-byte float64 buffer is already small change).
	minBits = 6
	// maxBits caps pooled buffers at 1<<26 elements (512 MiB of
	// float64); anything larger is allocated directly and dropped on
	// release.
	maxBits    = 26
	numClasses = maxBits - minBits + 1
	// perClassCap and classBudgetBytes bound each class's mutex free list
	// (the smaller wins); further releases overflow into the class's
	// sync.Pool.
	perClassCap      = 64
	classBudgetBytes = 64 << 20
)

// freeListCap returns how many buffers of capacity c elements of size
// elemSize bytes a class's free list may hold.
func freeListCap(c int, elemSize uintptr) int {
	return min(perClassCap, classBudgetBytes/(c*int(elemSize)))
}

// classFor returns the class index whose buffers hold at least n
// elements, or numClasses when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minBits {
		return 0
	}
	return bits.Len(uint(n-1)) - minBits
}

// classOfCap returns the class whose size is exactly c, or -1 when c is
// not a class size (such buffers were not vended by the arena, or were
// re-sliced; pooling them would corrupt the class invariant).
func classOfCap(c int) int {
	if c < 1<<minBits || c&(c-1) != 0 {
		return -1
	}
	idx := bits.TrailingZeros(uint(c)) - minBits
	if idx >= numClasses {
		return -1
	}
	return idx
}

// Stats counts arena traffic (atomically updated, for tests and
// diagnostics).
type Stats struct {
	Gets  int64 // buffers handed out
	Hits  int64 // ... of which came from a free list or pool
	Puts  int64 // buffers returned and retained
	Drops int64 // returned buffers not poolable (foreign capacity or oversize)
}

var stats Stats

// Snapshot returns the current arena counters.
func Snapshot() Stats {
	return Stats{
		Gets:  atomic.LoadInt64(&stats.Gets),
		Hits:  atomic.LoadInt64(&stats.Hits),
		Puts:  atomic.LoadInt64(&stats.Puts),
		Drops: atomic.LoadInt64(&stats.Drops),
	}
}

// ResetStats zeroes the arena counters.
func ResetStats() {
	atomic.StoreInt64(&stats.Gets, 0)
	atomic.StoreInt64(&stats.Hits, 0)
	atomic.StoreInt64(&stats.Puts, 0)
	atomic.StoreInt64(&stats.Drops, 0)
}

// checked enables the debug protocol checker: released buffers are
// poisoned and tracked, double releases and releases of foreign slices
// panic. Tests flip it; production leaves it off.
var checked atomic.Bool

// checkedState tracks the data pointers of every buffer currently held
// by the arena while checked mode is on.
var checkedState struct {
	mu   sync.Mutex
	free map[unsafe.Pointer]bool
}

// SetChecked toggles the debug protocol checker. Enabling it clears the
// tracked set; it must not be toggled while buffers are in flight.
func SetChecked(on bool) {
	checkedState.mu.Lock()
	if on {
		checkedState.free = make(map[unsafe.Pointer]bool)
	} else {
		checkedState.free = nil
	}
	checkedState.mu.Unlock()
	checked.Store(on)
}

// Checked reports whether the debug protocol checker is on.
func Checked() bool { return checked.Load() }

// class is one size class of one element type.
type class[T any] struct {
	mu       sync.Mutex
	free     [][]T
	overflow sync.Pool // of *T: the first element of a buffer of the class's size
}

// arena is the per-element-type class table.
type arena[T any] struct {
	classes [numClasses]class[T]
}

var (
	f64Arena  arena[float64]
	byteArena arena[byte]
)

// f64Poison is a quiet NaN with a recognizable payload, so a
// use-after-release in checked mode computes garbage that screams.
var f64Poison = func() float64 {
	bad := uint64(0x7FF8_DEAD_BEEF_0001)
	return *(*float64)(unsafe.Pointer(&bad))
}()

const bytePoison byte = 0xDB

func (a *arena[T]) get(n int) []T {
	atomic.AddInt64(&stats.Gets, 1)
	if n == 0 {
		// A zero-length make of any type is the runtime's zero base:
		// non-nil, no allocation, and distinguishable from "no buffer".
		return make([]T, 0)
	}
	c := classFor(n)
	if c >= numClasses {
		return make([]T, n)
	}
	cl := &a.classes[c]
	cl.mu.Lock()
	if k := len(cl.free); k > 0 {
		b := cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
		cl.mu.Unlock()
		atomic.AddInt64(&stats.Hits, 1)
		checkedAcquire(unsafe.Pointer(unsafe.SliceData(b)))
		return b[:n]
	}
	cl.mu.Unlock()
	if p, _ := cl.overflow.Get().(*T); p != nil {
		atomic.AddInt64(&stats.Hits, 1)
		checkedAcquire(unsafe.Pointer(p))
		return unsafe.Slice(p, 1<<(c+minBits))[:n]
	}
	return make([]T, n, 1<<(c+minBits))
}

func (a *arena[T]) put(b []T, poison T) {
	if b == nil {
		return
	}
	c := classOfCap(cap(b))
	if c < 0 {
		atomic.AddInt64(&stats.Drops, 1)
		return
	}
	b = b[:cap(b)]
	if checked.Load() {
		for i := range b {
			b[i] = poison
		}
		checkedRelease(unsafe.Pointer(unsafe.SliceData(b)))
	}
	a.store(c, b)
}

// store takes back b, a whole buffer of class c already released (and,
// in checked mode, poisoned and tracked).
func (a *arena[T]) store(c int, b []T) {
	atomic.AddInt64(&stats.Puts, 1)
	cl := &a.classes[c]
	limit := freeListCap(len(b), unsafe.Sizeof(b[0]))
	cl.mu.Lock()
	if len(cl.free) < limit || checked.Load() {
		// Checked mode keeps everything on the free list: the sync.Pool
		// would let the GC drop tracked buffers and leak checker entries.
		cl.free = append(cl.free, b)
		cl.mu.Unlock()
		return
	}
	cl.mu.Unlock()
	cl.overflow.Put(unsafe.SliceData(b))
}

func checkedAcquire(p unsafe.Pointer) {
	if !checked.Load() {
		return
	}
	checkedState.mu.Lock()
	delete(checkedState.free, p)
	checkedState.mu.Unlock()
}

func checkedRelease(p unsafe.Pointer) {
	checkedState.mu.Lock()
	dup := checkedState.free[p]
	if !dup {
		checkedState.free[p] = true
	}
	checkedState.mu.Unlock()
	if dup {
		panic(fmt.Sprintf("bufpool: double release of buffer %p", p))
	}
}

// GetF64 returns a float64 buffer of length n with arbitrary contents.
func GetF64(n int) []float64 { return f64Arena.get(n) }

// PutF64 returns a buffer vended by GetF64 to the arena. The caller must
// not touch it afterwards. Buffers the arena did not vend (wrong
// capacity) are dropped; nil is a no-op.
func PutF64(b []float64) { f64Arena.put(b, f64Poison) }

// GetBytes returns a byte buffer of length n with arbitrary contents.
func GetBytes(n int) []byte { return byteArena.get(n) }

// PutBytes returns a buffer vended by GetBytes to the arena.
func PutBytes(b []byte) { byteArena.put(b, bytePoison) }

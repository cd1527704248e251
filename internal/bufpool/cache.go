package bufpool

import "unsafe"

const (
	// cacheClasses is how many of the smallest float64 classes a Cache
	// keeps (64 to 8,192 elements, 512 bytes to 64 KiB); larger buffers
	// go straight to the arena.
	cacheClasses = 8
	// cacheDepth and cacheClassBytes bound each class's stack (the smaller
	// wins): 128 buffers of 64 elements, halving per class up to one of
	// 8,192.
	cacheDepth      = 128
	cacheClassBytes = 64 << 10
)

// cacheCap returns how many buffers class c of a Cache may hold.
func cacheCap(c int) int {
	return min(cacheDepth, cacheClassBytes>>(c+minBits+3))
}

// cacheBase[c] is where class c's stack starts in Cache.slots;
// cacheBase[cacheClasses] is the slot count.
var cacheBase = func() (b [cacheClasses + 1]int) {
	for c := range cacheClasses {
		b[c+1] = b[c] + cacheCap(c)
	}
	return b
}()

// cacheSlots is cacheBase[cacheClasses], a constant for the array type.
const cacheSlots = 128 + 64 + 32 + 16 + 8 + 4 + 2 + 1

// Cache is a single-owner front to the float64 arena: a bounded stack of
// buffers per small size class, taken and refilled with no lock and no
// atomic update. A Get the stack cannot serve falls through to GetF64, a
// Put to a full stack spills to the arena, and Flush hands every cached
// buffer back. Buffers move freely between a Cache, the arena and other
// Caches: each is one class's size either way.
//
// Only the arena counts: a buffer counts as got when it leaves the arena
// and as put when it returns, so Gets == Puts + Drops holds at quiescence
// once every Cache is flushed. Under SetChecked a Put poisons and tracks
// the buffer and panics on a double release, exactly as PutF64 does.
//
// One goroutine at a time may use a Cache; its zero value is empty and
// ready.
type Cache struct {
	n     [cacheClasses]int32
	slots [cacheSlots]*float64
}

// GetF64 returns a float64 buffer of length n with arbitrary contents: the
// class's most recently cached buffer, or the arena's.
func (c *Cache) GetF64(n int) []float64 {
	k := classFor(n)
	if k >= cacheClasses || c.n[k] == 0 {
		return GetF64(n)
	}
	c.n[k]--
	i := cacheBase[k] + int(c.n[k])
	p := c.slots[i]
	c.slots[i] = nil
	checkedAcquire(unsafe.Pointer(p))
	return unsafe.Slice(p, 1<<(k+minBits))[:n]
}

// PutF64 returns b to the cache, or to the arena when its class is not
// cached or its stack is full. The caller must not touch b afterwards;
// nil and foreign slices are accepted as PutF64 accepts them.
func (c *Cache) PutF64(b []float64) {
	k := classOfCap(cap(b))
	if k < 0 || k >= cacheClasses {
		PutF64(b)
		return
	}
	b = b[:cap(b)]
	if checked.Load() {
		for i := range b {
			b[i] = f64Poison
		}
		checkedRelease(unsafe.Pointer(unsafe.SliceData(b)))
	}
	if int(c.n[k]) == cacheCap(k) {
		f64Arena.store(k, b)
		return
	}
	c.slots[cacheBase[k]+int(c.n[k])] = unsafe.SliceData(b)
	c.n[k]++
}

// Flush hands every cached buffer back to the arena, leaving the cache
// empty.
func (c *Cache) Flush() {
	for k := range c.n {
		for i := cacheBase[k]; i < cacheBase[k]+int(c.n[k]); i++ {
			f64Arena.store(k, unsafe.Slice(c.slots[i], 1<<(k+minBits)))
			c.slots[i] = nil
		}
		c.n[k] = 0
	}
}

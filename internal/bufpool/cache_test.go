package bufpool

import (
	"math"
	"testing"
	"unsafe"
)

func TestCacheSlotsMatchCaps(t *testing.T) {
	if cacheBase[cacheClasses] != cacheSlots {
		t.Fatalf("class stacks take %d slots, the array has %d", cacheBase[cacheClasses], cacheSlots)
	}
	if cacheCap(0) != cacheDepth || cacheCap(cacheClasses-1) != 1 {
		t.Fatalf("class 0 holds %d, the top cached class %d; want %d and 1", cacheCap(0), cacheCap(cacheClasses-1), cacheDepth)
	}
}

// A cached buffer comes back to a Get of any length in its class, and to
// no other class; lengths are the Get's, capacities the class's.
func TestCacheClassMatch(t *testing.T) {
	var c Cache
	defer c.Flush()
	b := GetF64(100) // class of 128
	p := unsafe.SliceData(b)
	c.PutF64(b)
	if d := c.GetF64(64); unsafe.SliceData(d) == p {
		t.Fatal("a 64-element Get took a 128-element buffer")
	} else {
		c.PutF64(d)
	}
	d := c.GetF64(120)
	if unsafe.SliceData(d) != p || len(d) != 120 || cap(d) != 128 {
		t.Fatalf("Get(120) = %p len %d cap %d, want the cached %p len 120 cap 128", unsafe.SliceData(d), len(d), cap(d), p)
	}
	c.PutF64(d)
}

// Gets and puts that the cache serves leave the arena untouched and
// allocate nothing; a full class spills to the arena, counted as puts.
func TestCacheSpillsPastBound(t *testing.T) {
	var c Cache
	defer c.Flush()
	const extra = 3
	bufs := make([][]float64, cacheCap(0)+extra)
	for i := range bufs {
		bufs[i] = GetF64(64)
	}
	ResetStats()
	for _, b := range bufs {
		c.PutF64(b)
	}
	if s := Snapshot(); s.Puts != extra || s.Gets != 0 {
		t.Fatalf("putting %d buffers into a class of %d: arena %+v, want %d puts", len(bufs), cacheCap(0), s, extra)
	}
	ResetStats()
	if n := testing.AllocsPerRun(100, func() {
		b := c.GetF64(50)
		b[0] = 1
		c.PutF64(b)
	}); n != 0 {
		t.Errorf("cached Get/Put: %v allocs/run, want 0", n)
	}
	if s := Snapshot(); s != (Stats{}) {
		t.Errorf("cached Get/Put reached the arena: %+v", s)
	}
	// Above the cached classes every buffer is the arena's.
	big := c.GetF64(1 << (minBits + cacheClasses))
	c.PutF64(big)
	if s := Snapshot(); s.Gets != 1 || s.Puts != 1 {
		t.Errorf("a buffer above the cached classes: arena %+v, want one get and one put", s)
	}
}

// Flush hands every cached buffer back, so the arena balances, and leaves
// the cache empty: the next Get is the arena's.
func TestCacheFlush(t *testing.T) {
	ResetStats()
	var c Cache
	for _, n := range []int{1, 65, 1000, 8192} {
		c.PutF64(c.GetF64(n))
	}
	if b := c.GetF64(0); len(b) != 0 || cap(b) != 1<<minBits {
		t.Fatalf("Get(0) = len %d cap %d, want the cached class-0 buffer", len(b), cap(b))
	} else {
		c.PutF64(b)
	}
	c.PutF64(nil)
	if s := Snapshot(); s.Gets != 4 || s.Puts != 0 || s.Drops != 0 {
		t.Fatalf("before Flush: arena %+v, want 4 gets and nothing back", s)
	}
	c.Flush()
	if s := Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Fatalf("after Flush the arena is out of balance: %+v", s)
	}
	if c != (Cache{}) {
		t.Fatal("Flush left buffers in the cache")
	}
	c.GetF64(64)
	if s := Snapshot(); s.Gets != 5 {
		t.Errorf("a Get after Flush did not reach the arena: %+v", s)
	}
}

// Under SetChecked a cached buffer is poisoned and tracked like one the
// arena holds: a second release panics, whether it goes to the cache or
// to the arena, and no buffer is handed out twice.
func TestCacheChecked(t *testing.T) {
	SetChecked(true)
	defer SetChecked(false)
	var c Cache
	defer c.Flush()
	b := c.GetF64(64)
	for i := range b {
		b[i] = float64(i)
	}
	alias := b
	c.PutF64(b)
	for i, v := range alias {
		if !math.IsNaN(v) || math.Float64bits(v) != math.Float64bits(f64Poison) {
			t.Fatalf("cached buffer element %d = %v, want the poison", i, v)
		}
	}
	for _, release := range []func([]float64){c.PutF64, PutF64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a second release of a cached buffer did not panic")
				}
			}()
			release(alias)
		}()
	}

	// A class's stack past its bound and back: every buffer out is
	// distinct, and spilling and reacquiring one is no double release.
	n := cacheCap(0) + 4
	seen := make(map[*float64]bool)
	held := make([][]float64, 0, n)
	for range 2 {
		for range n {
			b := c.GetF64(64)
			if seen[unsafe.SliceData(b)] {
				t.Fatalf("buffer %p handed out twice", unsafe.SliceData(b))
			}
			seen[unsafe.SliceData(b)] = true
			held = append(held, b)
		}
		for _, b := range held {
			c.PutF64(b)
		}
		held = held[:0]
		clear(seen)
	}
}

package serve

import (
	"container/list"
	"sync"

	"github.com/ooc-hpf/passion/internal/compiler"
)

// planCache is a bounded LRU of compiled plans keyed on the canonical
// compile-input hash (Request.cacheKey). Concurrent misses on the same
// key compile once: the first arrival compiles while the others wait on
// its pending entry, and the waiters count as hits — they paid no
// compilation.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	pending map[string]*pendingCompile

	hits, misses int64
}

type cacheEntry struct {
	key         string
	res         *compiler.Result
	fingerprint string
}

type pendingCompile struct {
	done chan struct{}
	res  *compiler.Result
	fp   string
	err  error
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		pending: make(map[string]*pendingCompile),
	}
}

// getOrCompile returns the cached plan for key, compiling it with
// compile on a miss. The bool reports a cache hit. The compiled plan is
// shared by reference across jobs: execution never mutates a
// plan.Program, which the concurrency tests pin down under the race
// detector.
func (c *planCache) getOrCompile(key string, compile func() (*compiler.Result, string, error)) (*compiler.Result, string, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		return e.res, e.fingerprint, true, nil
	}
	if p, ok := c.pending[key]; ok {
		// Someone is compiling this key right now; wait for them.
		c.hits++
		c.mu.Unlock()
		<-p.done
		return p.res, p.fp, true, p.err
	}
	p := &pendingCompile{done: make(chan struct{})}
	c.pending[key] = p
	c.misses++
	c.mu.Unlock()

	p.res, p.fp, p.err = compile()
	close(p.done)

	c.mu.Lock()
	delete(c.pending, key)
	if p.err == nil {
		el := c.lru.PushFront(&cacheEntry{key: key, res: p.res, fingerprint: p.fp})
		c.entries[key] = el
		for c.lru.Len() > c.cap {
			old := c.lru.Back()
			c.lru.Remove(old)
			delete(c.entries, old.Value.(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	return p.res, p.fp, false, p.err
}

// CacheStats is the cache's metrics view.
type CacheStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits:     c.hits,
		Misses:   c.misses,
		Entries:  c.lru.Len(),
		Capacity: c.cap,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}

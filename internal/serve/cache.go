package serve

import (
	"container/list"
	"sync"

	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/oocarray"
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

// cacheEntry is one compiled plan: the compiler's result, the plan
// lowered once to the opcode stream every job on it runs, the inputs
// every such job fills, whose local images the entry keeps, and the
// plan's fingerprint.
type cacheEntry struct {
	key         string
	res         *compiler.Result
	lowered     *exec.Lowered
	inputs      map[string]oocarray.Input
	images      *oocarray.Images
	fingerprint string
}

type pendingCompile struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
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
// compile and lowering it on a miss; a plan that does not lower is not
// cached. The bool reports a cache hit. The entry is shared by reference
// across jobs: execution mutates neither a plan.Program nor its lowered
// stream, which the concurrency tests pin down under the race detector.
func (c *planCache) getOrCompile(key string, compile func() (*compiler.Result, string, error)) (*cacheEntry, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry), true, nil
	}
	if p, ok := c.pending[key]; ok {
		// Someone is compiling this key right now; wait for them.
		c.hits++
		c.mu.Unlock()
		<-p.done
		return p.entry, true, p.err
	}
	p := &pendingCompile{done: make(chan struct{})}
	c.pending[key] = p
	c.misses++
	c.mu.Unlock()

	p.entry, p.err = fill(key, compile)
	close(p.done)

	c.mu.Lock()
	delete(c.pending, key)
	if p.err == nil {
		c.entries[key] = c.lru.PushFront(p.entry)
		for c.lru.Len() > c.cap {
			old := c.lru.Back()
			c.lru.Remove(old)
			e := old.Value.(*cacheEntry)
			delete(c.entries, e.key)
			e.images.Release()
		}
	}
	c.mu.Unlock()
	return p.entry, false, p.err
}

// fill compiles and lowers one entry.
func fill(key string, compile func() (*compiler.Result, string, error)) (*cacheEntry, error) {
	res, fp, err := compile()
	if err != nil {
		return nil, err
	}
	lowered, err := exec.Lower(res.Program)
	if err != nil {
		return nil, err
	}
	images := oocarray.NewImages()
	inputs := cliutil.InputsFor(res)
	for name, in := range inputs {
		inputs[name] = images.Keep(in)
	}
	return &cacheEntry{key: key, res: res, lowered: lowered, inputs: inputs, images: images, fingerprint: fp}, nil
}

// release gives back the images of every cached plan, once no job runs:
// a closed server's plans hold none of the images' budget.
func (c *planCache) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*cacheEntry).images.Release()
	}
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

package service

import (
	"container/list"
	"sync"

	"repro/pkg/api"
)

// LRUCache is a fixed-capacity least-recently-used cache from canonical
// request keys to marshaled response bytes. Values are stored and
// returned as raw bytes so repeated hits are byte-identical — the
// determinism contract graphd's job replay relies on.
type LRUCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	hits, misses,
	evictions uint64
}

type lruItem struct {
	key  string
	body []byte
	work *api.WorkStats // of the computation that produced body; nil for jobs
}

// NewLRUCache returns a cache holding at most capacity entries
// (capacity <= 0 disables caching: every lookup misses, Add is a no-op).
func NewLRUCache(capacity int) *LRUCache {
	return &LRUCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached bytes for key and the work stats stored with
// them, so a hit re-observes the work without recomputing it. Both are
// shared; callers must not mutate them.
func (c *LRUCache) Get(key string) (body []byte, work *api.WorkStats, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	it := el.Value.(*lruItem)
	return it.body, it.work, true
}

// Add stores body and its (immutable) work stats under key, evicting
// the least recently used entry when the cache is full.
func (c *LRUCache) Add(key string, body []byte, work *api.WorkStats) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem)
		it.body, it.work = body, work
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, body: body, work: work})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *LRUCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss/eviction counters.
func (c *LRUCache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

package service

import (
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
	root  lruEntry // sentinel of the recency ring: root.next is the most recently used
	items map[string]*lruEntry
	bytes int // len(key) + len(body) over the entries
	hits, misses,
	evictions uint64
}

// lruEntry is one cached reply and its own ring node, so an Add
// allocates once; a replaced key gets a new entry, so what Get hands out
// never changes.
type lruEntry struct {
	prev, next *lruEntry
	key        string
	body       []byte
	work       api.WorkStats // of the computation that produced body; none for jobs
}

// NewLRUCache returns a cache holding at most capacity entries
// (capacity <= 0 disables caching: every lookup misses, Add is a no-op).
func NewLRUCache(capacity int) *LRUCache {
	c := &LRUCache{cap: capacity, items: make(map[string]*lruEntry)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the cached bytes for key and the work stats stored with
// them, so a hit re-observes the work without recomputing it. Both are
// shared; callers must not mutate them.
func (c *LRUCache) Get(key string) (body []byte, work *api.WorkStats, ok bool) {
	s := [1]seedSlot{{key: key}}
	ok = c.probe(s[:], true) == 0
	return s[0].body, s[0].work, ok
}

// probe answers from the cache, under one lock, every slot that has
// neither a reply nor a flight yet and returns how many it could not,
// counting hits and misses unless the caller has counted these misses.
func (c *LRUCache) probe(slots []seedSlot, count bool) (misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hits := 0
	for i := range slots {
		sl := &slots[i]
		if sl.body != nil || sl.f != nil {
			continue
		}
		e, ok := c.items[sl.key]
		if !ok {
			misses++
			continue
		}
		hits++
		c.unlink(e)
		c.pushFront(e)
		sl.body, sl.work = e.body, workOf(&e.work)
	}
	if count {
		c.hits, c.misses = c.hits+uint64(hits), c.misses+uint64(misses)
	}
	return misses
}

// Add stores body and a copy of its work stats (nil for none) under
// key, evicting the least recently used entry when the cache is full.
func (c *LRUCache) Add(key string, body []byte, work *api.WorkStats) {
	f := flight{key: key, body: body}
	if work != nil {
		f.work = *work
	}
	c.fill([]*flight{&f})
}

// fill is Add, under one lock, for every flight that has a reply.
func (c *LRUCache) fill(fs []*flight) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range fs {
		if f.body == nil {
			continue
		}
		if old, ok := c.items[f.key]; ok {
			c.remove(old)
		}
		e := &lruEntry{key: f.key, body: f.body, work: f.work}
		c.items[f.key] = e
		c.bytes += len(f.key) + len(f.body)
		c.pushFront(e)
		for len(c.items) > c.cap {
			c.remove(c.root.prev)
			c.evictions++
		}
	}
}

func (c *LRUCache) pushFront(e *lruEntry) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *LRUCache) unlink(e *lruEntry) { e.prev.next, e.next.prev = e.next, e.prev }

func (c *LRUCache) remove(e *lruEntry) {
	c.unlink(e)
	delete(c.items, e.key)
	c.bytes -= len(e.key) + len(e.body)
}

// Len returns the number of cached entries.
func (c *LRUCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the key and body bytes the cache holds.
func (c *LRUCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns cumulative hit/miss/eviction counters.
func (c *LRUCache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// workOf returns w, or nil when it holds no stats: every computation
// that produces some names its method.
func workOf(w *api.WorkStats) *api.WorkStats {
	if w.Method == "" {
		return nil
	}
	return w
}

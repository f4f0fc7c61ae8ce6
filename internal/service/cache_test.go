package service

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/pkg/api"
)

func TestLRUCacheEvictionOrder(t *testing.T) {
	c := NewLRUCache(3)
	c.Add("a", []byte("A"), nil)
	c.Add("b", []byte("B"), nil)
	c.Add("c", []byte("C"), nil)

	// Touch "a": it becomes most recently used, so "b" is now oldest.
	if _, _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.Add("d", []byte("D"), nil)

	if _, _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, key := range []string{"a", "c", "d"} {
		if _, _, ok := c.Get(key); !ok {
			t.Errorf("%s should have survived the eviction", key)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}

	// Updating an existing key refreshes both value and recency: "c" is
	// now the oldest and goes next.
	c.Add("a", []byte("A2"), nil)
	c.Add("d", []byte("D2"), nil)
	c.Add("e", []byte("E"), nil)
	if _, _, ok := c.Get("c"); ok {
		t.Fatal("c should have been evicted after a and d were refreshed")
	}
	if v, _, ok := c.Get("a"); !ok || !bytes.Equal(v, []byte("A2")) {
		t.Fatalf("a = %q, want refreshed value A2", v)
	}
}

func TestLRUCacheSequentialEviction(t *testing.T) {
	c := NewLRUCache(4)
	for i := 0; i < 10; i++ {
		c.Add(fmt.Sprintf("k%d", i), []byte{byte(i)}, nil)
	}
	// Without any Get traffic the eviction order is pure insertion
	// order: only the last 4 survive.
	for i := 0; i < 6; i++ {
		if _, _, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			t.Errorf("k%d should have been evicted", i)
		}
	}
	for i := 6; i < 10; i++ {
		if _, _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d should be cached", i)
		}
	}
	if _, _, evictions := c.Stats(); evictions != 6 {
		t.Fatalf("evictions = %d, want 6", evictions)
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := NewLRUCache(0)
	c.Add("a", []byte("A"), nil)
	if _, _, ok := c.Get("a"); ok {
		t.Fatal("capacity 0 must disable caching")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d, want 0", c.Len())
	}
}

// TestLRUCacheSharedBytes pins the byte-identity contract: repeated
// gets hand every caller the same backing slice, not copies — this is
// what makes job replay byte-identical and cheap. The work stats are
// copied in once (a caller's own stats may live on its stack) and every
// hit shares that copy; an entry stored without stats has none.
func TestLRUCacheSharedBytes(t *testing.T) {
	c := NewLRUCache(2)
	val, work := []byte("payload"), &api.WorkStats{Method: "push", Pushes: 3}
	c.Add("k", val, work)
	got1, work1, _ := c.Get("k")
	got2, work2, _ := c.Get("k")
	if &got1[0] != &val[0] || &got2[0] != &val[0] {
		t.Fatal("cache must return the stored slice, not a copy")
	}
	if work1 == nil || *work1 != *work || work2 != work1 {
		t.Fatal("cache must return the work stats stored with the bytes")
	}
	c.Add("job", val, nil)
	if _, w, ok := c.Get("job"); !ok || w != nil {
		t.Fatalf("an entry stored without work stats returned %+v", w)
	}
}

// TestLRUCacheBytes: the byte count is key plus body over the entries,
// through adds, replacements and evictions.
func TestLRUCacheBytes(t *testing.T) {
	c := NewLRUCache(2)
	c.Add("a", make([]byte, 10), nil)
	c.Add("bb", make([]byte, 20), nil)
	if got := c.Bytes(); got != 1+10+2+20 {
		t.Fatalf("bytes = %d after two adds, want 33", got)
	}
	c.Add("a", make([]byte, 5), nil) // replace
	if got := c.Bytes(); got != 1+5+2+20 {
		t.Fatalf("bytes = %d after a replacement, want 28", got)
	}
	c.Add("ccc", make([]byte, 7), nil) // evicts "bb"
	if got := c.Bytes(); got != 1+5+3+7 || c.Len() != 2 {
		t.Fatalf("bytes = %d, entries %d after an eviction, want 16 and 2", got, c.Len())
	}
}

// TestConcurrentIdenticalQueriesShareOneComputation is the endpoint
// -level version of the dedup contract: concurrent identical PPR
// queries against a cold cache produce byte-identical responses and
// exactly one computation. It counts computations by the one reply that
// says it opened one (X-Graphd-Cache: miss), not by LRU misses, which
// every caller can incur before the flight fills the cache: a caller
// whose probe missed finds the flight in the table or its reply in the
// cache, never neither.
func TestConcurrentIdenticalQueriesShareOneComputation(t *testing.T) {
	for _, d := range daemons {
		t.Run(d.name, func(t *testing.T) {
			srv, ts, _ := testServer(t, d.cfg)
			req := api.PPRRequest{Seeds: []int{0}, Alpha: 0.1, Eps: 1e-5, Sweep: true}

			const callers = 16
			bodies := make([][]byte, callers)
			outcomes := make([]string, callers)
			var start, wg sync.WaitGroup
			start.Add(1)
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					start.Wait()
					status, body, outcome, err := postFrom(ts.URL+"/v1/graphs/ring/ppr", req)
					if err != nil || status != http.StatusOK {
						t.Errorf("caller %d: status %d (%v): %s", i, status, err, body)
					}
					bodies[i], outcomes[i] = body, outcome
				}(i)
			}
			start.Done()
			wg.Wait()

			count := map[string]int{}
			for i := 0; i < callers; i++ {
				if !bytes.Equal(bodies[i], bodies[0]) {
					t.Fatalf("caller %d diverged:\n%s\nvs\n%s", i, bodies[i], bodies[0])
				}
				count[outcomes[i]]++
			}
			if count["miss"] != 1 || count["miss"]+count["shared"]+count["hit"] != callers {
				t.Fatalf("outcomes %v for %d identical queries, want one miss and the rest shared or hit", count, callers)
			}
			if srv.cache.Len() != 1 {
				t.Fatalf("cache has %d entries, want 1", srv.cache.Len())
			}
		})
	}
}

package service

import (
	"bytes"
	"fmt"
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
// what makes job replay byte-identical and cheap.
func TestLRUCacheSharedBytes(t *testing.T) {
	c := NewLRUCache(2)
	val, work := []byte("payload"), &api.WorkStats{Method: "push"}
	c.Add("k", val, work)
	got1, work1, _ := c.Get("k")
	got2, _, _ := c.Get("k")
	if &got1[0] != &val[0] || &got2[0] != &val[0] {
		t.Fatal("cache must return the stored slice, not a copy")
	}
	if work1 != work {
		t.Fatal("cache must return the work stats stored with the bytes")
	}
}

// TestConcurrentIdenticalQueriesShareOneComputation is the endpoint
// -level version of the dedup contract: concurrent identical PPR
// queries against a cold cache produce byte-identical responses and at
// most a handful of underlying computations (exactly one per
// singleflight window), observable through the cache-miss counter.
func TestConcurrentIdenticalQueriesShareOneComputation(t *testing.T) {
	srv, _, c := testServer(t, Config{})
	req := api.PPRRequest{Seeds: []int{0}, Alpha: 0.1, Eps: 1e-5, Sweep: true}

	const callers = 16
	responses := make([]api.PPRResponse, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = c.Graphs.PPR(ctx(), "ring", req)
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if responses[i].Support != responses[0].Support ||
			responses[i].Pushes != responses[0].Pushes ||
			responses[i].Sweep == nil ||
			responses[i].Sweep.Conductance != responses[0].Sweep.Conductance {
			t.Fatalf("caller %d diverged: %+v vs %+v", i, responses[i], responses[0])
		}
	}

	// Only callers that raced ahead of the flight miss the cache; they
	// coalesce onto one computation, so misses < callers by a wide
	// margin and the cache holds exactly one entry for this key.
	_, misses, _ := srv.cache.Stats()
	if misses >= callers {
		t.Fatalf("%d cache misses for %d identical queries: no deduplication happened", misses, callers)
	}
	if srv.cache.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", srv.cache.Len())
	}
}

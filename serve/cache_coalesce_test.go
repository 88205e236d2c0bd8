package serve

import (
	"context"
	"sync"
	"testing"
)

// TestLRUCacheConcurrent hammers one lruCache from many goroutines: a
// hit must always return the exact traversal stored under that source —
// never a half-built or mismatched entry — while eviction churns the
// list. Run under -race this also proves the lock discipline.
func TestLRUCacheConcurrent(t *testing.T) {
	c := newLRUCache(4, 0)
	const workers = 8
	const ops = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				src := uint32((w + i) % 16) // 16 sources over 4 slots: constant eviction
				if i%3 == 0 {
					c.put(src, &Traversal{Source: src, Steps: int(src) + 1})
				}
				if tr, ok := c.get(src); ok {
					if tr.Source != src || tr.Steps != int(src)+1 {
						t.Errorf("cache returned foreign entry: asked %d, got source %d steps %d",
							src, tr.Source, tr.Steps)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.len() > 4 {
		t.Fatalf("cache grew past capacity: %d", c.len())
	}
}

// TestCacheEvictionDuringCoalescedFill squeezes many concurrent queries
// over more sources than the cache holds through a tiny engine pool:
// singleflight fills, coalesced waiters and LRU evictions interleave
// constantly, and every response — cached, coalesced or fresh — must
// carry depths identical to the serial reference.
func TestCacheEvictionDuringCoalescedFill(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g, Config{
		CacheEntries:   1, // every second distinct source evicts the other
		PoolSize:       1,
		BatchThreshold: 100, // keep the per-engine path (engine results get cached)
	})
	const nSources = 3
	wants := make([][]int32, nSources)
	for i := range wants {
		wants[i] = serialDepths(t, g, uint32(i))
	}
	const workers = 12
	const rounds = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				src := uint32((w*7 + i) % nSources)
				resp, err := s.Query(context.Background(), Request{Graph: "g", Source: src, AllDepths: true})
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, i, err)
					return
				}
				for v, want := range wants[src] {
					if resp.Depths[v] != want {
						t.Errorf("worker %d round %d: depth(%d) from %d = %d, want %d",
							w, i, v, src, resp.Depths[v], want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.CacheHits == 0 || st.Coalesced == 0 {
		t.Logf("note: cacheHits=%d coalesced=%d (load pattern may vary)", st.CacheHits, st.Coalesced)
	}
}

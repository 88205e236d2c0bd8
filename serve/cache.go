package serve

import (
	"container/list"
	"sync"

	"fastbfs/internal/msbfs"
)

// lruCache is a bounded most-recently-used cache of completed
// traversals, keyed by source vertex. Engine options are fixed for the
// lifetime of a service, and graphs are immutable once added, so
// entries never go stale and the full cache key (graph, source,
// options) collapses to the source within one graph's cache.
//
// Capacity is counted in traversals, and the per-graph cache budget is
// 8·V·cap bytes. An engine traversal holds one 8-byte word per graph
// vertex. A batched traversal pins its whole multi-source sweep — the
// seen mask plus one depth plane per bit of the sweep's depth, about
// (P+1)·8·V bytes — so a sweep is counted once however many of its
// lanes are cached, and least-recently-used entries are evicted until
// both the entry count and the pinned bytes are within bounds. An entry
// that alone exceeds the budget is not kept.
type lruCache struct {
	mu     sync.Mutex
	cap    int
	budget int64                 // 8·V·cap
	bytes  int64                 // pinned bytes, each sweep counted once
	sweeps map[*msbfs.Result]int // cached lanes per pinned sweep
	ll     *list.List            // front = most recently used; values are *cacheEntry
	items  map[uint32]*list.Element
}

type cacheEntry struct {
	source uint32
	tr     *Traversal
}

// newLRUCache returns a cache of the given capacity for a graph of the
// given vertex count; cap <= 0 disables caching (every get misses, every
// put is dropped).
func newLRUCache(capacity, vertices int) *lruCache {
	c := &lruCache{cap: capacity}
	if capacity > 0 {
		c.budget = 8 * int64(vertices) * int64(capacity)
		c.sweeps = make(map[*msbfs.Result]int)
		c.ll = list.New()
		c.items = make(map[uint32]*list.Element, capacity)
	}
	return c
}

func (c *lruCache) get(source uint32) (*Traversal, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[source]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).tr, true
}

func (c *lruCache) put(source uint32, tr *Traversal) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[source]; ok {
		e := el.Value.(*cacheEntry)
		c.unpin(e.tr)
		e.tr = tr
		c.ll.MoveToFront(el)
	} else {
		c.items[source] = c.ll.PushFront(&cacheEntry{source: source, tr: tr})
	}
	c.pin(tr)
	for c.ll.Len() > 0 && (c.ll.Len() > c.cap || c.bytes > c.budget) {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.source)
		c.unpin(e.tr)
	}
}

// pin and unpin account the bytes tr holds.
func (c *lruCache) pin(tr *Traversal) {
	if tr.sweep == nil {
		c.bytes += 8 * int64(len(tr.dp))
		return
	}
	if c.sweeps[tr.sweep]++; c.sweeps[tr.sweep] == 1 {
		c.bytes += tr.sweep.Bytes()
	}
}

func (c *lruCache) unpin(tr *Traversal) {
	if tr.sweep == nil {
		c.bytes -= 8 * int64(len(tr.dp))
		return
	}
	if c.sweeps[tr.sweep]--; c.sweeps[tr.sweep] == 0 {
		delete(c.sweeps, tr.sweep)
		c.bytes -= tr.sweep.Bytes()
	}
}

// purge drops every entry. The scrubber calls this when it quarantines
// a graph: rot precedes its detection by up to one scrub interval, so
// traversals cached in that window may have read corrupted resident
// bytes.
func (c *lruCache) purge() {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	clear(c.sweeps)
	c.bytes = 0
}

func (c *lruCache) len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// pinned reports the bytes the cached traversals hold.
func (c *lruCache) pinned() int64 {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

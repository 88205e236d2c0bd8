package serve

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/msbfs"
)

// checkTreeAnswer asserts a response's target parents and path are
// valid BFS-tree answers: depths equal the serial reference, a parent
// sits one level up with an edge to its child, and the path is an edge
// walk from the source of the target's depth.
func checkTreeAnswer(t *testing.T, g *graph.Graph, want []int32, req Request, resp *Response) {
	t.Helper()
	for _, tr := range resp.Targets {
		v := tr.Vertex
		if tr.Depth != want[v] {
			t.Fatalf("source %d: depth(%d) = %d, want %d", req.Source, v, tr.Depth, want[v])
		}
		switch {
		case tr.Depth < 0:
			if tr.Parent != -1 {
				t.Fatalf("source %d: unreached %d has parent %d", req.Source, v, tr.Parent)
			}
		case tr.Depth == 0:
			if tr.Parent != int64(v) {
				t.Fatalf("source %d: source parent %d", req.Source, tr.Parent)
			}
		default:
			p := tr.Parent
			if p < 0 || want[p] != tr.Depth-1 || !g.HasEdge(uint32(p), v) {
				t.Fatalf("source %d: parent(%d) = %d is not a tree edge", req.Source, v, p)
			}
		}
	}
	if req.PathTo == nil {
		return
	}
	to := *req.PathTo
	if found := want[to] >= 0; resp.PathFound == nil || *resp.PathFound != found {
		t.Fatalf("source %d: path_found for %d wrong (depth %d)", req.Source, to, want[to])
	}
	if want[to] < 0 {
		return
	}
	path := resp.Path
	if len(path) != int(want[to])+1 || path[0] != req.Source || path[len(path)-1] != to {
		t.Fatalf("source %d: path to %d = %v, want %d hops", req.Source, to, path, want[to])
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			t.Fatalf("source %d: path step %d→%d is not an edge", req.Source, path[i-1], path[i])
		}
	}
}

// TestBatchedTreeAnswersAndCacheReplay serves parents and paths from
// lane views of batched sweeps over a directed graph (parents recovered
// through the in-adjacency), then replays every query from the cache:
// the replay must be byte-identical to the first answer but for the
// cached flag.
func TestBatchedTreeAnswersAndCacheReplay(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g, Config{
		BatchThreshold: 2,
		BatchLinger:    100 * time.Millisecond,
	})
	const clients = 24
	reqs := make([]Request, clients)
	wants := make([][]int32, clients)
	n := uint32(g.NumVertices())
	for c := range reqs {
		src := uint32(c*131+5) % n
		to := uint32(c*977+11) % n
		reqs[c] = Request{Graph: "g", Source: src, Targets: []uint32{src, to, (to + 1) % n, uint32(c)}, PathTo: &to}
		wants[c] = serialDepths(t, g, src)
	}
	first := make([]*Response, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first[c], errs[c] = s.Query(context.Background(), reqs[c])
		}(c)
	}
	wg.Wait()
	batched := 0
	for c := range reqs {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		checkTreeAnswer(t, g, wants[c], reqs[c], first[c])
		if first[c].Batched {
			batched++
		}
	}
	if batched == 0 {
		t.Fatal("no query was served by a batched sweep")
	}
	for c := range reqs {
		replay, err := s.Query(context.Background(), reqs[c])
		if err != nil {
			t.Fatal(err)
		}
		if !replay.Cached {
			t.Fatalf("client %d: replay missed the cache", c)
		}
		replay.Cached = false
		a, _ := json.Marshal(first[c])
		b, _ := json.Marshal(replay)
		if string(a) != string(b) {
			t.Fatalf("client %d: replay differs from first answer:\n%s\n%s", c, a, b)
		}
	}
}

// TestCacheBudgetCountsPinnedSweeps fills a cache with lanes of
// distinct sweeps: each cached lane pins its whole sweep, a sweep is
// counted once however many of its lanes are cached, and eviction keeps
// the pinned bytes within the 8·V·cap budget.
func TestCacheBudgetCountsPinnedSweeps(t *testing.T) {
	g, err := gen.Grid2D(20, 20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	const capacity = 8
	budget := int64(8 * n * capacity)
	c := newLRUCache(capacity, n)

	sweep := func(first uint32) *msbfs.Result {
		res, err := msbfs.Run(g, []uint32{first, first + 1, first + 2, first + 3}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := sweep(0)
	for k := range one.Sources {
		c.put(one.Sources[k], newLaneTraversal(one, k, g, 0))
	}
	if c.len() != len(one.Sources) || c.pinned() != one.Bytes() {
		t.Fatalf("4 lanes of one sweep: %d entries pinning %d bytes, want 4 and %d",
			c.len(), c.pinned(), one.Bytes())
	}
	if one.Bytes() <= 8*int64(n) {
		t.Fatalf("sweep pins only %d bytes; the test needs multi-plane sweeps", one.Bytes())
	}

	evicted := false
	for i := 1; i < 40; i++ {
		res := sweep(uint32(10 * i))
		c.put(res.Sources[0], newLaneTraversal(res, 0, g, 0))
		if c.pinned() > budget {
			t.Fatalf("after %d sweeps: %d bytes pinned, budget %d", i+1, c.pinned(), budget)
		}
		evicted = evicted || c.len() < capacity
	}
	if c.len() >= capacity || !evicted {
		t.Fatalf("%d entries of distinct sweeps fit a %d-entry cache: byte budget not enforced", c.len(), capacity)
	}

	// Engine traversals count 8·V each, and a full cache of them is
	// exactly the budget.
	opts := bfs.Default(1)
	opts.Workers = 1
	for v := uint32(0); v < capacity; v++ {
		r, err := bfs.Run(g, v+100, opts)
		if err != nil {
			t.Fatal(err)
		}
		c.put(v+100, newEngineTraversal(r))
	}
	if c.len() != capacity || c.pinned() != budget {
		t.Fatalf("engine entries: %d pinning %d bytes, want %d and %d", c.len(), c.pinned(), capacity, budget)
	}
	c.purge()
	if c.pinned() != 0 {
		t.Fatalf("purge left %d bytes pinned", c.pinned())
	}
}

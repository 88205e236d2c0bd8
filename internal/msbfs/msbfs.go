// Package msbfs implements batched multi-source breadth-first search:
// up to 64 traversals of one graph executed as a single bit-parallel
// sweep (MS-BFS, after Then et al., "The More the Merrier: Efficient
// Multi-Source Graph Traversal").
//
// Each source occupies one bit lane of a 64-bit word; per vertex the
// kernel keeps a seen mask (lanes that have visited it) and a visit
// mask (lanes whose current frontier contains it). One scan of an
// active vertex's adjacency list serves every lane whose bit is set, so
// a batch of B sources traverses each shared edge roughly once instead
// of B times — that is where the aggregate-throughput win over running
// B independent engines comes from (cf. Buluç & Madduri on aggregating
// traversal work items into batches).
//
// The sweep is level-synchronous like the single-source engine, so per
// lane the computed depths are exactly those of an independent BFS from
// that lane's source. Depths are stored bit-sliced: plane j holds, per
// vertex, bit j of every lane's depth (bit k of planes[j][v] is bit j of
// lane k's depth of v), so a sweep of depth D keeps ⌈log2(D+1)⌉ planes
// of 8 bytes per vertex beside seen, instead of one 8-byte cell per
// (vertex, lane). The level's commit loop — which already owns every
// vertex it touches — ORs the newly discovered lanes into the planes of
// the level's set depth bits; neither scan loop writes per-lane state,
// and nothing is INF-filled (a lane is unreached exactly where its seen
// bit is clear). Parents are not stored: lane k's parent of v at depth
// d is the first in-neighbour of v, in in-adjacency order, at depth d-1
// (Result.Parent), which is a valid, deterministic BFS tree.
package msbfs

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"fastbfs/graph"
	"fastbfs/internal/core"
	"fastbfs/internal/par"
)

// MaxLanes is the largest batch one sweep can carry: one source per bit
// of the per-vertex visited word.
const MaxLanes = 64

// scanChunk is the dynamic work-claiming granularity of the frontier
// scan; small enough to balance RMAT degree skew, large enough that the
// atomic cursor is cold.
const scanChunk = 256

// Result is the outcome of one multi-source sweep. Its lane state (seen
// mask and depth planes) is allocated per sweep and owned by the
// caller; every reader is safe for concurrent use.
type Result struct {
	// Sources are the batch sources; lane k traversed from Sources[k].
	Sources []uint32
	// Steps is the number of sweep levels (the max depth reached by any
	// lane, plus the final empty-frontier detection level — the same
	// counting as the engine's Result.Steps for the deepest lane).
	Steps int
	// EdgesScanned counts adjacency entries the sweep actually read —
	// the real memory traffic.
	EdgesScanned int64
	// LaneEdges is Σ over lanes of the edges an independent per-source
	// run would have traversed (popcount-weighted scans). It is the
	// aggregate-TEPS numerator comparable against the sum of individual
	// runs; LaneEdges/EdgesScanned is the sharing factor the batch won.
	// Hybrid sweeps weight bottom-up entries by the lanes still seeking
	// a parent when the entry was examined.
	LaneEdges int64
	Elapsed   time.Duration
	// Directions records the per-level expansion choice of a hybrid
	// sweep (RunHybrid*); nil for plain sweeps.
	Directions []core.Direction

	seen      []uint64   // seen[v] bit k: lane k reached v
	planes    [][]uint64 // planes[j][v] bit k: bit j of lane k's depth of v
	visited   []int64    // per lane: vertices reached
	laneSteps []int      // per lane: deepest level + 1 (engine counting)
}

// AggregateMTEPS is the batch throughput in millions of per-lane
// equivalent edges per second — directly comparable to summing the
// MTEPS of len(Sources) independent runs.
func (r *Result) AggregateMTEPS() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.LaneEdges) / s / 1e6
}

// workerAcc is one scan worker's private accumulator.
type workerAcc struct {
	touched      []uint32 // vertices this worker first-discovered this level
	edgesScanned int64
	laneEdges    int64
	found        uint64    // lanes this worker's commit discovered this level
	_            [4]uint64 // pad against false sharing of the counters
}

// Run performs one multi-source sweep from sources (1..MaxLanes of
// them; duplicates allowed — duplicate lanes produce identical depths).
// workers <= 0 means GOMAXPROCS.
func Run(g *graph.Graph, sources []uint32, workers int) (*Result, error) {
	return RunContext(context.Background(), g, sources, workers)
}

// RunContext is Run under a context, checked between levels: like the
// single-source engine, cancellation aborts within one level and
// returns ctx.Err(). It is the sweep with bottom-up levels off.
func RunContext(ctx context.Context, g *graph.Graph, sources []uint32, workers int) (*Result, error) {
	return sweep(ctx, g, nil, sources, workers, false)
}

// sweep is the one multi-source sweep body. in is the in-adjacency for
// bottom-up levels (used only when hybrid).
func sweep(ctx context.Context, g, in *graph.Graph, sources []uint32, workers int, hybrid bool) (*Result, error) {
	lanes := len(sources)
	if lanes == 0 {
		return nil, errors.New("msbfs: empty source batch")
	}
	if lanes > MaxLanes {
		return nil, fmt.Errorf("msbfs: %d sources exceeds MaxLanes (%d)", lanes, MaxLanes)
	}
	n := g.NumVertices()
	for k, s := range sources {
		if int(s) >= n {
			return nil, fmt.Errorf("msbfs: source %d (lane %d) out of range", s, k)
		}
	}
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start := time.Now()
	seen := make([]uint64, n)
	visit := make([]uint64, n)
	visitNext := make([]uint64, n)

	frontier := make([]uint32, 0, lanes)
	for k, s := range sources {
		if seen[s] == 0 {
			frontier = append(frontier, s)
		}
		bit := uint64(1) << uint(k)
		seen[s] |= bit
		visit[s] |= bit
	}
	// levels[d] is the set of lanes that reached some vertex at depth d;
	// a lane's Steps is one past the last level holding its bit.
	levels := []uint64{batchMask(lanes)}

	ws := make([]workerAcc, workers)
	next := make([]uint32, 0, 1024)
	res := &Result{Sources: append([]uint32(nil), sources...), seen: seen}

	dir := core.DirTopDown
	muEdges := g.NumEdges()
	var depthPlanes [][]uint64

	for depth := uint32(1); len(frontier) > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Steps = int(depth)
		if hybrid {
			res.Directions = append(res.Directions, dir)
		}

		var levelScanned int64
		var discovered int
		if dir == core.DirTopDown {
			scanTopDown(g, frontier, visit, seen, visitNext, ws, workers)
		} else {
			scanBottomUp(in, batchMask(lanes), visit, seen, visitNext, ws, workers)
		}
		for w := range ws {
			levelScanned += ws[w].edgesScanned
			res.EdgesScanned += ws[w].edgesScanned
			res.LaneEdges += ws[w].laneEdges
			discovered += len(ws[w].touched)
		}

		// Retire the old frontier's visit masks, then commit the new one:
		// each worker owns exactly the vertices it discovered
		// (first-setter top-down, vertex range bottom-up), so the commit
		// writes — seen, visit and the depth planes — are disjoint.
		if err := par.For(workers, len(frontier), func(lo, hi int) {
			for _, v := range frontier[lo:hi] {
				visit[v] = 0
			}
		}); err != nil {
			return nil, err
		}
		// Plane j comes into being at the first level of depth 2^j that
		// discovers anything; the level's vertices get its set depth bits.
		depthPlanes = depthPlanes[:0]
		if discovered > 0 {
			for bits.Len32(depth) > len(res.planes) {
				res.planes = append(res.planes, make([]uint64, n))
			}
			for b := depth; b != 0; b &= b - 1 {
				depthPlanes = append(depthPlanes, res.planes[bits.TrailingZeros32(b)])
			}
		}
		if err := par.Run(workers, func(w int) {
			var found uint64
			for _, v := range ws[w].touched {
				nv := visitNext[v]
				visitNext[v] = 0
				seen[v] |= nv
				visit[v] = nv
				for _, p := range depthPlanes {
					p[v] |= nv
				}
				found |= nv
			}
			ws[w].found = found
		}); err != nil {
			return nil, err
		}

		next = next[:0]
		var found uint64
		for w := range ws {
			next = append(next, ws[w].touched...)
			found |= ws[w].found
		}
		levels = append(levels, found)

		if hybrid {
			dir = nextDirection(g, dir, frontier, next, levelScanned, &muEdges)
		}
		frontier, next = next, frontier
	}

	res.visited = laneVisited(seen, lanes, workers)
	res.laneSteps = make([]int, lanes)
	for d, m := range levels {
		for b := m; b != 0; b &= b - 1 {
			res.laneSteps[bits.TrailingZeros64(b)] = d + 1
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// scanTopDown expands every frontier vertex once for all its lanes.
// seen is frozen for the whole level, so its unsynchronized reads are
// safe; visitNext is claimed by atomic OR, and the worker that takes a
// word from 0 lists the vertex in its touched set.
func scanTopDown(g *graph.Graph, frontier []uint32, visit, seen, visitNext []uint64,
	ws []workerAcc, workers int) {
	var cursor atomic.Int64
	mustRun(par.Run(workers, func(w int) {
		acc := &ws[w]
		acc.touched = acc.touched[:0]
		var es, le int64
		for {
			base := int(cursor.Add(scanChunk)) - scanChunk
			if base >= len(frontier) {
				break
			}
			for _, v := range frontier[base:min(base+scanChunk, len(frontier))] {
				mask := visit[v]
				adj := g.Neighbors1(v)
				es += int64(len(adj))
				le += int64(bits.OnesCount64(mask)) * int64(len(adj))
				for _, u := range adj {
					d := mask &^ seen[u]
					if d == 0 {
						continue
					}
					if orUint64(&visitNext[u], d) == 0 {
						acc.touched = append(acc.touched, u)
					}
				}
			}
		}
		acc.edgesScanned, acc.laneEdges = es, le
	}))
}

// batchMask returns the mask of live lanes.
func batchMask(lanes int) uint64 {
	return ^uint64(0) >> uint(64-lanes)
}

// mustRun panics on par.Run pool errors (nil worker counts are
// validated by the callers, so the only failure mode is a worker panic,
// which par.Run re-raises anyway).
func mustRun(err error) {
	if err != nil {
		panic(err)
	}
}

// orUint64 atomically ORs v into *p and returns the previous value
// (CAS loop; sync/atomic.OrUint64 needs go 1.23 and go.mod pins 1.22).
func orUint64(p *uint64, v uint64) uint64 {
	for {
		old := atomic.LoadUint64(p)
		if old&v == v {
			return old
		}
		if atomic.CompareAndSwapUint64(p, old, old|v) {
			return old
		}
	}
}

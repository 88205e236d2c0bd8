package msbfs

import (
	"context"
	"fmt"
	"math/bits"

	"fastbfs/graph"
	"fastbfs/internal/core"
	"fastbfs/internal/par"
)

// Hybrid multi-source sweep: the direction-optimizing rule of the
// single-source engine applied to the bit-parallel MS-BFS. MS-BFS is
// unusually well placed for bottom-up levels because its frontier is
// ALREADY a dense per-vertex structure (the visit masks), so switching
// direction costs nothing — no array↔bitmap conversion at all. A
// bottom-up level iterates the vertices with unseen lanes and scans
// in-neighbors until every lane has found a parent (the multi-source
// analogue of first-parent early exit: the scan stops when the
// remaining-lanes mask drains, not after one hit).

// RunHybrid performs one direction-optimizing multi-source sweep. in is
// the in-adjacency used by bottom-up levels; nil asserts g is symmetric
// (g then serves as its own in-adjacency). Depths per lane are exactly
// those of independent BFS runs. workers <= 0 means GOMAXPROCS.
func RunHybrid(g, in *graph.Graph, sources []uint32, workers int) (*Result, error) {
	return RunHybridContext(context.Background(), g, in, sources, workers)
}

// RunHybridContext is RunHybrid under a context, checked between levels.
// The α/β thresholds are the engine defaults (core.DefaultAlpha/Beta).
func RunHybridContext(ctx context.Context, g, in *graph.Graph, sources []uint32, workers int) (*Result, error) {
	if in == nil {
		in = g
	}
	if in.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("msbfs: in-adjacency has %d vertices, graph %d", in.NumVertices(), g.NumVertices())
	}
	return sweep(ctx, g, in, sources, workers, true)
}

// nextDirection applies the engine's α/β rule after a level that
// expanded frontier into next in direction dir. muEdges tracks the
// edges not yet scanned top-down.
func nextDirection(g *graph.Graph, dir core.Direction, frontier, next []uint32, levelScanned int64, muEdges *int64) core.Direction {
	if dir == core.DirTopDown {
		*muEdges = max(*muEdges-levelScanned, 0)
		var scout int64
		for _, v := range next {
			scout += int64(g.Offsets[v+1] - g.Offsets[v])
		}
		if len(next) > 0 && float64(scout) > float64(*muEdges)/core.DefaultAlpha {
			return core.DirBottomUp
		}
	} else if len(next) < len(frontier) &&
		float64(len(next)) <= float64(g.NumVertices())/core.DefaultBeta {
		return core.DirTopDown
	}
	return dir
}

// scanBottomUp runs one bottom-up level: every vertex with unseen lanes
// scans its in-neighbors for frontier members, one per lane, and stops
// as soon as no lane remains. Workers take contiguous vertex ranges, so every
// write — visitNext and the touched list — is worker-exclusive and the
// kernel needs no atomics.
func scanBottomUp(in *graph.Graph, mask uint64, visit, seen, visitNext []uint64,
	ws []workerAcc, workers int) {
	n := in.NumVertices()
	mustRun(par.Run(workers, func(w int) {
		acc := &ws[w]
		acc.touched = acc.touched[:0]
		var es, le int64
		lo, hi := par.Range(n, w, workers)
		for v := lo; v < hi; v++ {
			rem := mask &^ seen[v]
			if rem == 0 {
				continue
			}
			var nv uint64
			for _, u := range in.Neighbors1(uint32(v)) {
				es++
				le += int64(bits.OnesCount64(rem))
				d := visit[u] & rem
				if d == 0 {
					continue
				}
				nv |= d
				rem &^= d
				if rem == 0 {
					break
				}
			}
			if nv != 0 {
				visitNext[uint32(v)] = nv
				acc.touched = append(acc.touched, uint32(v))
			}
		}
		acc.edgesScanned, acc.laneEdges = es, le
	}))
}

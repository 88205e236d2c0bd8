package msbfs

import (
	"errors"
	"fmt"
	"math/bits"

	"fastbfs/graph"
	"fastbfs/internal/par"
)

// Readers of a sweep's bit-sliced lane state: seen[v] bit k says lane k
// reached v, and bit k of planes[j][v] is bit j of that lane's depth.

// NumVertices returns the vertex count of the swept graph.
func (r *Result) NumVertices() int { return len(r.seen) }

// Bytes returns the lane state the result pins: the seen mask plus one
// depth plane per bit of the deepest level, 8 bytes per vertex each.
func (r *Result) Bytes() int64 {
	return 8 * int64(len(r.seen)) * int64(len(r.planes)+1)
}

// reached reports whether lane k reached v.
func (r *Result) reached(lane int, v uint32) bool {
	return r.seen[v]>>uint(lane)&1 != 0
}

// Depth returns lane k's BFS depth of v, or -1 if unreached.
func (r *Result) Depth(lane int, v uint32) int32 {
	if !r.reached(lane, v) {
		return -1
	}
	var d int32
	for j, p := range r.planes {
		d |= int32(p[v]>>uint(lane)&1) << uint(j)
	}
	return d
}

// atDepth reports whether lane k reached v at exactly depth d.
func (r *Result) atDepth(lane int, v, d uint32) bool {
	if !r.reached(lane, v) || d>>uint(len(r.planes)) != 0 {
		return false
	}
	for j, p := range r.planes {
		if uint32(p[v]>>uint(lane)&1) != d>>uint(j)&1 {
			return false
		}
	}
	return true
}

// Parent returns lane k's BFS parent of v: the first in-neighbour of v,
// in in's adjacency order, at depth Depth(lane, v)-1. That is a valid
// BFS tree, and the same one on every call. It returns v for the lane's
// source and -1 if v is unreached. in must be the in-adjacency of the
// swept graph (the graph itself when it is symmetric).
func (r *Result) Parent(in *graph.Graph, lane int, v uint32) int64 {
	d := r.Depth(lane, v)
	switch {
	case d < 0:
		return -1
	case d == 0:
		return int64(v)
	}
	for _, u := range in.Neighbors1(v) {
		if r.atDepth(lane, u, uint32(d-1)) {
			return int64(u)
		}
	}
	return -1 // in is not the swept graph's in-adjacency
}

// LaneVisited returns the number of vertices lane k reached.
func (r *Result) LaneVisited(lane int) int64 { return r.visited[lane] }

// LaneSteps returns lane k's level count under the engine's counting:
// its deepest level plus the empty-frontier detection level.
func (r *Result) LaneSteps(lane int) int { return r.laneSteps[lane] }

// ErrDepthOverflow reports a lane whose BFS depth does not fit the
// caller's compact depth encoding (DepthsInto, AllDepthsInto).
var ErrDepthOverflow = errors.New("msbfs: lane depth exceeds encoding range")

// DepthsInto extracts one lane's depth array into dst as compact uint16
// values, writing unreached for unvisited vertices. Returns the lane's
// maximum reached depth; a depth >= unreached cannot be represented and
// yields ErrDepthOverflow. len(dst) must equal the vertex count of the
// sweep.
func (r *Result) DepthsInto(lane int, dst []uint16, unreached uint16) (uint32, error) {
	if len(dst) != len(r.seen) {
		return 0, fmt.Errorf("msbfs: DepthsInto dst has %d entries, lane has %d", len(dst), len(r.seen))
	}
	var maxDepth uint32
	for v := range dst {
		d := r.Depth(lane, uint32(v))
		if d < 0 {
			dst[v] = unreached
			continue
		}
		if uint32(d) >= uint32(unreached) {
			return 0, fmt.Errorf("%w: depth %d at vertex %d (limit %d)", ErrDepthOverflow, d, v, unreached)
		}
		maxDepth = max(maxDepth, uint32(d))
		dst[v] = uint16(d)
	}
	return maxDepth, nil
}

// AllDepthsInto is DepthsInto for every lane at once, in one parallel
// pass over the vertices: dst[k] receives lane k's depths. It is the
// handoff to consumers that only need distances — notably the
// landmark-labeling index builder, which keeps 2-byte distances per
// (landmark, vertex) pair. Per vertex and group of 8 lanes, one 8×8 bit
// transpose turns 8 depth planes into 8 lanes' depth bytes. An
// unrepresentable depth yields ErrDepthOverflow naming the lane and its
// source. workers <= 0 means GOMAXPROCS.
func (r *Result) AllDepthsInto(dst [][]uint16, unreached uint16, workers int) error {
	if len(dst) != len(r.Sources) {
		return fmt.Errorf("msbfs: AllDepthsInto dst has %d lanes, sweep has %d", len(dst), len(r.Sources))
	}
	for k := range dst {
		if len(dst[k]) != len(r.seen) {
			return fmt.Errorf("msbfs: AllDepthsInto dst[%d] has %d entries, lane has %d", k, len(dst[k]), len(r.seen))
		}
	}
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	errs := make([]error, workers)
	if err := par.Run(workers, func(w int) {
		lo, hi := par.Range(len(r.seen), w, workers)
		errs[w] = r.depthsRange(dst, unreached, lo, hi)
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// depthsRange is AllDepthsInto over vertices [lo, hi).
func (r *Result) depthsRange(dst [][]uint16, unreached uint16, lo, hi int) error {
	lanes := len(dst)
	planes := r.planes
	if len(planes) > 16 {
		// Planes past 16 are never read: a lane's depths are contiguous,
		// so a lane reaching past 65535 also reaches some vertex at depth
		// exactly unreached, and that vertex reports the overflow.
		planes = planes[:16]
	}
	var depth [MaxLanes]uint32
	for v := lo; v < hi; v++ {
		s := r.seen[v]
		if s == 0 {
			for k := range dst {
				dst[k][v] = unreached
			}
			continue
		}
		for g := 0; g < lanes; g += 8 {
			// Row j of the 8×8 bit matrix is plane j's byte for lanes
			// g..g+7; transposed, row i is lane g+i's depth byte.
			var lo8, hi8 uint64
			for j, p := range planes {
				b := p[v] >> uint(g) & 0xFF
				if j < 8 {
					lo8 |= b << uint(8*j)
				} else {
					hi8 |= b << uint(8*(j-8))
				}
			}
			lo8, hi8 = transpose8(lo8), transpose8(hi8)
			for i := 0; i < 8; i++ {
				depth[g+i] = uint32(lo8>>uint(8*i)&0xFF) | uint32(hi8>>uint(8*i)&0xFF)<<8
			}
		}
		for k := range dst {
			if s>>uint(k)&1 == 0 {
				dst[k][v] = unreached
				continue
			}
			if depth[k] >= uint32(unreached) {
				return fmt.Errorf("%w: lane %d (source %d) depth %d at vertex %d (limit %d)",
					ErrDepthOverflow, k, r.Sources[k], depth[k], v, unreached)
			}
			dst[k][v] = uint16(depth[k])
		}
	}
	return nil
}

// laneVisited counts, per lane, the vertices whose seen bit it holds:
// each block of 64 seen words is bit-transposed so that row k holds
// lane k's bits for those 64 vertices, then popcounted.
func laneVisited(seen []uint64, lanes, workers int) []int64 {
	blocks := (len(seen) + 63) / 64
	parts := make([][MaxLanes]int64, workers)
	mustRun(par.Run(workers, func(w int) {
		lo, hi := par.Range(blocks, w, workers)
		var cnt [MaxLanes]int64
		for b := lo; b < hi; b++ {
			var blk [64]uint64
			copy(blk[:], seen[64*b:min(64*b+64, len(seen))])
			transpose64(&blk)
			for k := 0; k < lanes; k++ {
				cnt[k] += int64(bits.OnesCount64(blk[k]))
			}
		}
		parts[w] = cnt
	}))
	visited := make([]int64, lanes)
	for w := range parts {
		for k := range visited {
			visited[k] += parts[w][k]
		}
	}
	return visited
}

// transpose64 transposes a 64×64 bit matrix in place: afterwards bit c
// of a[r] is what bit r of a[c] was. Each round swaps the off-diagonal
// j×j blocks of every 2j×2j block (Hacker's Delight §7-3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
		m ^= m << uint(j>>1)
	}
}

// transpose8 transposes an 8×8 bit matrix held one row per byte (row r
// is bits 8r..8r+7): afterwards bit c of row r is what bit r of row c
// was.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	x ^= t ^ t<<28
	return x
}

// Package index implements a landmark-based distance oracle: pruned
// 2-hop-style label entries built 64 landmarks at a time with the
// MS-BFS kernel, answering point distance/reachability queries in
// microseconds instead of a full traversal per query.
//
// Each vertex v carries two sorted label sets (one for symmetric
// graphs): out(v) holds (rank, d(v→ℓ)) for landmarks ℓ reachable from
// v, in(v) holds (rank, d(ℓ→v)) for landmarks reaching v. A query
// merge-joins the two label arrays on landmark rank:
//
//	UB(s,t) = min over ℓ ∈ out(s)∩in(t) of d(s→ℓ) + d(ℓ→t)
//	LB(s,t) = max over common in-labels of d(ℓ→t) − d(ℓ→s), and
//	          over common out-labels of d(s→ℓ) − d(t→ℓ)
//
// Both bounds follow from the triangle inequality over exact BFS
// depths. The answer is certified exact when the bounds pinch
// (UB == LB), when either endpoint is itself a landmark (then the join
// IS the distance, including "no join" = unreachable), or — on covered
// symmetric graphs — when no join exists at all (every component holds
// a landmark, so no common landmark means different components).
// Anything else is a bound, and the serving layer falls back to an
// exact BFS.
//
// Labels are post-pruned PLL-style: inserting landmarks in rank order,
// an entry (r, d) at v is dropped when the already-committed labels
// prove a join of value ≤ d. Pruned entries are always covered by a
// committed witness of equal value (label distances are true
// distances), so pruning shrinks labels without loosening UB for
// landmark-involved pairs — the exactness claims above survive it.
package index

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"fastbfs/graph"
	"fastbfs/internal/msbfs"
	"fastbfs/internal/par"
	"fastbfs/internal/xrand"
)

// MaxLandmarks caps the landmark count: ranks pack into 16 bits of a
// label entry, alongside a 16-bit depth.
const MaxLandmarks = 0xFFFF

// unreached16 is the in-build sentinel for "landmark does not reach
// this vertex"; it bounds representable depths to maxDepth16.
const unreached16 = 0xFFFF

// maxDepth16 is the largest BFS depth a label entry can carry. A graph
// with a landmark eccentricity beyond it (a path of ~65k+ vertices)
// cannot be indexed with this format and Build reports ErrDepthRange.
const maxDepth16 = 0xFFFE

// ErrDepthRange reports a graph whose BFS depths exceed the 16-bit
// label encoding; such graphs are served without an index.
var ErrDepthRange = errors.New("index: BFS depth exceeds 16-bit label range")

// Policy selects how landmarks are chosen.
type Policy uint32

const (
	// PolicyDegree ranks landmarks by descending out-degree (ties by
	// vertex id) — hubs lie on many shortest paths, so high-degree
	// landmarks maximize the chance the UB join is tight.
	PolicyDegree Policy = iota
	// PolicyRandom draws landmarks from a seeded permutation — the
	// unbiased baseline the degree policy is benchmarked against.
	PolicyRandom
)

// ParsePolicy maps the CLI/API spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "degree":
		return PolicyDegree, nil
	case "random":
		return PolicyRandom, nil
	}
	return 0, fmt.Errorf("index: unknown landmark policy %q (want degree or random)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyDegree:
		return "degree"
	case PolicyRandom:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", uint32(p))
}

// Options configure an index build.
type Options struct {
	// Landmarks is the number of primary landmarks (default 64 — one
	// full MS-BFS batch). Coverage extension on symmetric graphs may
	// add more, up to MaxLandmarks.
	Landmarks int
	// Policy selects the landmark ranking (default PolicyDegree).
	Policy Policy
	// Seed drives PolicyRandom selection; ignored by PolicyDegree.
	Seed uint64
	// Symmetric declares the graph symmetric: one label set per vertex,
	// single-sided sweeps, and component-coverage extension that makes
	// negative reachability answers exact.
	Symmetric bool
	// Workers bounds build parallelism; <=0 means GOMAXPROCS.
	Workers int
	// In optionally supplies a prebuilt in-adjacency (transpose) for
	// directed graphs, saving the build its own TransposeParallel.
	In *graph.Graph
}

// Answer is the oracle's verdict on one (s, t) pair.
type Answer struct {
	// Dist is the exact distance when Exact (−1 = proven unreachable);
	// meaningless otherwise.
	Dist int32
	// Exact reports whether Dist is certified; when false the caller
	// must fall back to a real traversal (UB/LB remain valid bounds).
	Exact bool
	// UB is the best upper bound on the distance, −1 if no label join
	// exists (the index cannot prove reachability).
	UB int32
	// LB is the best lower bound on the distance, valid whenever s
	// can reach t.
	LB int32
}

// Index is a built landmark labeling for one graph snapshot. The label
// arrays are CSR-shaped (offsets + packed entries) so the whole
// structure mmaps directly from its on-disk artifact.
//
// A label entry packs rank<<16 | depth into a uint32; entries within a
// vertex's slice are sorted by rank (insertion order during the build),
// which is what lets Query merge-join two labels in one linear pass.
type Index struct {
	// Landmarks maps rank → vertex id.
	Landmarks []uint32
	// Symmetric mirrors Options.Symmetric; when set, the In arrays
	// alias the Out arrays.
	Symmetric bool
	// Covered reports that every vertex has at least one label entry
	// (symmetric builds only) — the precondition for exact negative
	// reachability.
	Covered bool
	// Policy and Seed record how Landmarks was chosen, so a lost
	// artifact can be rebuilt with identical parameters.
	Policy Policy
	Seed   uint64
	// GraphV and GraphE pin the graph snapshot this index answers for.
	GraphV uint64
	GraphE uint64

	// OutOff/OutLab are the out-label CSR: entries for vertex v live in
	// OutLab[OutOff[v]:OutOff[v+1]].
	OutOff []int64
	OutLab []uint32
	// InOff/InLab are the in-label CSR; for symmetric indexes they are
	// the same slices as OutOff/OutLab.
	InOff []int64
	InLab []uint32

	// rank maps landmark vertex → rank, rebuilt on load (not stored).
	rank map[uint32]uint16
	// mappedBytes is the mmap length when the arrays alias a mapping.
	mappedBytes int
}

func packEntry(rank uint16, depth uint16) uint32 {
	return uint32(rank)<<16 | uint32(depth)
}

// Matches reports whether the index was built for a graph with this
// shape. It is a snapshot guard, not a content hash: the serving layer
// pairs artifacts with graph files by path, this catches the obvious
// mismatches (wrong file, regenerated graph).
func (ix *Index) Matches(g *graph.Graph) bool {
	return ix.GraphV == uint64(g.NumVertices()) && ix.GraphE == uint64(g.NumEdges())
}

// LabelBytes is the resident footprint of the label arrays (the
// dominant term; landmark list and offsets included).
func (ix *Index) LabelBytes() int64 {
	b := int64(len(ix.Landmarks))*4 + int64(len(ix.OutOff))*8 + int64(len(ix.OutLab))*4
	if !ix.Symmetric {
		b += int64(len(ix.InOff))*8 + int64(len(ix.InLab))*4
	}
	return b
}

// MappedBytes reports the byte length of the underlying mapping when
// the index was loaded via mmap, 0 for heap-resident indexes.
func (ix *Index) MappedBytes() int { return ix.mappedBytes }

// Entries returns the total number of label entries (both sides).
func (ix *Index) Entries() int64 {
	if ix.Symmetric {
		return int64(len(ix.OutLab))
	}
	return int64(len(ix.OutLab)) + int64(len(ix.InLab))
}

// buildRank derives the vertex→rank map from Landmarks.
func (ix *Index) buildRank() {
	ix.rank = make(map[uint32]uint16, len(ix.Landmarks))
	for r, v := range ix.Landmarks {
		ix.rank[v] = uint16(r)
	}
}

// IsLandmark reports whether v is a landmark of this index.
func (ix *Index) IsLandmark(v uint32) bool {
	_, ok := ix.rank[v]
	return ok
}

func (ix *Index) outLabel(v uint32) []uint32 {
	return ix.OutLab[ix.OutOff[v]:ix.OutOff[v+1]]
}

func (ix *Index) inLabel(v uint32) []uint32 {
	return ix.InLab[ix.InOff[v]:ix.InOff[v+1]]
}

// ubJoin merge-joins two rank-sorted labels and returns the minimum
// summed depth over common ranks, or -1 when no rank is shared.
func ubJoin(a, b []uint32) int32 {
	best := int32(-1)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ra, rb := a[i]>>16, b[j]>>16
		switch {
		case ra < rb:
			i++
		case ra > rb:
			j++
		default:
			s := int32(a[i]&0xFFFF) + int32(b[j]&0xFFFF)
			if best < 0 || s < best {
				best = s
			}
			i++
			j++
		}
	}
	return best
}

// lbJoin merge-joins two rank-sorted labels and returns the maximum of
// depth(b) − depth(a) over common ranks (0 when no rank is shared or
// every difference is negative).
func lbJoin(a, b []uint32) int32 {
	best := int32(0)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ra, rb := a[i]>>16, b[j]>>16
		switch {
		case ra < rb:
			i++
		case ra > rb:
			j++
		default:
			if d := int32(b[j]&0xFFFF) - int32(a[i]&0xFFFF); d > best {
				best = d
			}
			i++
			j++
		}
	}
	return best
}

// Query answers the point distance s→t. It never traverses the graph:
// cost is one or two merge-joins over the endpoint labels.
func (ix *Index) Query(s, t uint32) Answer {
	if s == t {
		return Answer{Dist: 0, Exact: true, UB: 0, LB: 0}
	}
	outS, inT := ix.outLabel(s), ix.inLabel(t)
	ub := ubJoin(outS, inT)

	// Lower bound: s≠t gives 1 for free; label joins tighten it.
	lb := int32(1)
	if !ix.Symmetric {
		if d := lbJoin(ix.inLabel(s), inT); d > lb {
			lb = d
		}
		if d := lbJoin(ix.outLabel(t), outS); d > lb {
			lb = d
		}
	} else {
		// One label set: |d(ℓ,s) − d(ℓ,t)| bounds from both sides.
		if d := lbJoin(outS, inT); d > lb {
			lb = d
		}
		if d := lbJoin(inT, outS); d > lb {
			lb = d
		}
	}

	// Landmark endpoints make the join itself exact: out(ℓ) holds
	// (rank(ℓ), 0), so the join reproduces d(ℓ→t) (or d(s→ℓ)) whenever
	// the target is reachable, and finds nothing precisely when it is
	// not — pruning only drops entries that committed witnesses replay.
	landmarkEnd := ix.IsLandmark(s) || ix.IsLandmark(t)

	if ub < 0 {
		exact := landmarkEnd || (ix.Symmetric && ix.Covered)
		return Answer{Dist: -1, Exact: exact, UB: -1, LB: lb}
	}
	if landmarkEnd || ub == lb {
		return Answer{Dist: ub, Exact: true, UB: ub, LB: lb}
	}
	return Answer{Dist: -1, Exact: false, UB: ub, LB: lb}
}

// selectLandmarks ranks the primary landmark set per the policy.
func selectLandmarks(g *graph.Graph, opt Options) []uint32 {
	n := g.NumVertices()
	l := opt.Landmarks
	if l > n {
		l = n
	}
	if l > MaxLandmarks {
		l = MaxLandmarks
	}
	switch opt.Policy {
	case PolicyRandom:
		perm := xrand.New(opt.Seed).Perm(n)
		return append([]uint32(nil), perm[:l]...)
	default:
		order := make([]uint32, n)
		for i := range order {
			order[i] = uint32(i)
		}
		sort.SliceStable(order, func(i, j int) bool {
			return g.Degree(order[i]) > g.Degree(order[j])
		})
		return append([]uint32(nil), order[:l]...)
	}
}

// builder accumulates per-vertex label slices during construction; the
// CSR flattening happens once at the end.
type builder struct {
	g       *graph.Graph
	tr      *graph.Graph // nil for symmetric builds
	workers int
	out     [][]uint32
	in      [][]uint32 // aliases out for symmetric builds
	marks   []uint32
}

// insertBatch runs the prune-and-commit pass for one sweep batch.
// distF[k][v] = d(batch[k]→v); distB[k][v] = d(v→batch[k]) (same slice
// for symmetric builds). Lanes commit in rank order so every prune
// decision sees exactly the lower-ranked committed labels.
func (b *builder) insertBatch(batch []uint32, distF, distB [][]uint16) error {
	n := b.g.NumVertices()
	for k, lm := range batch {
		rank := uint16(len(b.marks))
		b.marks = append(b.marks, lm)
		// Self entries first: they are what makes landmark-endpoint
		// joins exact, and the prune pass below reads them.
		self := packEntry(rank, 0)
		b.out[lm] = append(b.out[lm], self)
		if b.tr != nil {
			b.in[lm] = append(b.in[lm], self)
		}
		outL, inL := b.out[lm], b.in[lm]
		dF, dB := distF[k], distB[k]
		err := par.For(b.workers, n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if uint32(v) == lm {
					continue
				}
				// In-entry at v: d(ℓ→v). Keep only if the committed
				// labels cannot already prove a join this good.
				if d := dF[v]; d != unreached16 {
					if ub := ubJoin(outL, b.in[v]); ub < 0 || ub > int32(d) {
						b.in[v] = append(b.in[v], packEntry(rank, d))
					}
				}
				if b.tr == nil {
					continue
				}
				// Out-entry at v: d(v→ℓ), pruned against out(v)⋈in(ℓ).
				if d := dB[v]; d != unreached16 {
					if ub := ubJoin(b.out[v], inL); ub < 0 || ub > int32(d) {
						b.out[v] = append(b.out[v], packEntry(rank, d))
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepBatch runs the MS-BFS sweeps for one landmark batch and extracts
// compact uint16 depth arrays, releasing each sweep's lane state before
// the next sweep.
func (b *builder) sweepBatch(ctx context.Context, batch []uint32) (distF, distB [][]uint16, err error) {
	n := b.g.NumVertices()
	extract := func(res *msbfs.Result) ([][]uint16, error) {
		d := make([][]uint16, len(batch))
		for k := range d {
			d[k] = make([]uint16, n)
		}
		if err := res.AllDepthsInto(d, unreached16, b.workers); err != nil {
			if errors.Is(err, msbfs.ErrDepthOverflow) {
				return nil, fmt.Errorf("%w: %v", ErrDepthRange, err)
			}
			return nil, err
		}
		return d, nil
	}
	if b.tr == nil {
		res, err := msbfs.RunHybridContext(ctx, b.g, nil, batch, b.workers)
		if err != nil {
			return nil, nil, err
		}
		distF, err = extract(res)
		if err != nil {
			return nil, nil, err
		}
		return distF, distF, nil
	}
	fwd, err := msbfs.RunHybridContext(ctx, b.g, b.tr, batch, b.workers)
	if err != nil {
		return nil, nil, err
	}
	if distF, err = extract(fwd); err != nil {
		return nil, nil, err
	}
	fwd = nil
	bwd, err := msbfs.RunHybridContext(ctx, b.tr, b.g, batch, b.workers)
	if err != nil {
		return nil, nil, err
	}
	if distB, err = extract(bwd); err != nil {
		return nil, nil, err
	}
	return distF, distB, nil
}

// singletonComponent reports that v's component is {v} in a symmetric
// graph: every incident edge is a self-loop. Such vertices are covered
// by a sweep-free landmark (the self entry is the whole labeling).
func singletonComponent(g *graph.Graph, v uint32) bool {
	for _, u := range g.Neighbors1(v) {
		if u != v {
			return false
		}
	}
	return true
}

// Build constructs the labeling for g. For directed graphs pass
// opt.Symmetric=false and, optionally, a prebuilt transpose in opt.In;
// for symmetric graphs the build is single-sided and finishes with a
// coverage pass so negative reachability answers are exact.
func Build(ctx context.Context, g *graph.Graph, opt Options) (*Index, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, errors.New("index: empty graph")
	}
	if opt.Landmarks <= 0 {
		opt.Landmarks = msbfs.MaxLanes
	}
	if opt.Workers <= 0 {
		opt.Workers = par.DefaultWorkers()
	}

	b := &builder{g: g, workers: opt.Workers}
	if !opt.Symmetric {
		b.tr = opt.In
		if b.tr == nil {
			b.tr = g.TransposeParallel(opt.Workers)
		} else if b.tr.NumVertices() != n {
			return nil, fmt.Errorf("index: transpose has %d vertices, graph has %d", b.tr.NumVertices(), n)
		}
	}
	b.out = make([][]uint32, n)
	if b.tr != nil {
		b.in = make([][]uint32, n)
	} else {
		b.in = b.out
	}
	b.marks = make([]uint32, 0, opt.Landmarks)

	primary := selectLandmarks(g, opt)
	for lo := 0; lo < len(primary); lo += msbfs.MaxLanes {
		hi := min(lo+msbfs.MaxLanes, len(primary))
		batch := primary[lo:hi]
		distF, distB, err := b.sweepBatch(ctx, batch)
		if err != nil {
			return nil, err
		}
		if err := b.insertBatch(batch, distF, distB); err != nil {
			return nil, err
		}
	}

	// Coverage extension (symmetric only): promote a vertex from every
	// unlabeled component to landmark until no vertex is label-less, so
	// "no common landmark" certifies "different components". Singleton
	// components (the isolated-vertex flood of an RMAT graph) commit
	// their self entry directly; real components get sweep batches.
	covered := false
	if opt.Symmetric {
		covered = true
		for v := uint32(0); int(v) < n; v++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if len(b.out[v]) != 0 {
				continue
			}
			if len(b.marks) >= MaxLandmarks {
				covered = false
				break
			}
			if singletonComponent(g, v) {
				rank := uint16(len(b.marks))
				b.marks = append(b.marks, v)
				b.out[v] = append(b.out[v], packEntry(rank, 0))
				continue
			}
			// One sweep covers this whole component (and possibly
			// others further along); batch up to 64 uncovered
			// non-singleton vertices to amortize the sweep.
			batch := []uint32{v}
			for u := v + 1; int(u) < n && len(batch) < msbfs.MaxLanes; u++ {
				if len(b.out[u]) == 0 && !singletonComponent(g, u) {
					batch = append(batch, u)
				}
			}
			if len(b.marks)+len(batch) > MaxLandmarks {
				batch = batch[:MaxLandmarks-len(b.marks)]
			}
			distF, distB, err := b.sweepBatch(ctx, batch)
			if err != nil {
				return nil, err
			}
			if err := b.insertBatch(batch, distF, distB); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ix := &Index{
		Landmarks: b.marks,
		Symmetric: opt.Symmetric,
		Covered:   covered,
		Policy:    opt.Policy,
		Seed:      opt.Seed,
		GraphV:    uint64(n),
		GraphE:    uint64(g.NumEdges()),
	}
	ix.OutOff, ix.OutLab = flatten(b.out)
	if opt.Symmetric {
		ix.InOff, ix.InLab = ix.OutOff, ix.OutLab
	} else {
		ix.InOff, ix.InLab = flatten(b.in)
	}
	ix.buildRank()
	return ix, nil
}

// flatten converts per-vertex label slices to the CSR layout.
func flatten(lab [][]uint32) ([]int64, []uint32) {
	off := make([]int64, len(lab)+1)
	total := int64(0)
	for v, l := range lab {
		off[v] = total
		total += int64(len(l))
	}
	off[len(lab)] = total
	flat := make([]uint32, 0, total)
	for _, l := range lab {
		flat = append(flat, l...)
	}
	return off, flat
}

package serve

import (
	"fmt"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/internal/core"
	"fastbfs/internal/msbfs"
)

// Request is one traversal query. Graph and Source select the
// traversal; the remaining fields select what of its result to return.
type Request struct {
	Graph  string `json:"graph"`
	Source uint32 `json:"source"`
	// Targets asks for the depth/parent of specific vertices.
	Targets []uint32 `json:"targets,omitempty"`
	// PathTo asks for one shortest path from Source to this vertex.
	PathTo *uint32 `json:"path_to,omitempty"`
	// AllDepths asks for the full depth array (8 bytes/vertex on the
	// wire as JSON; meant for small graphs and testing).
	AllDepths bool `json:"all_depths,omitempty"`
	// DistanceOnly asks only for target distances (no parents, paths or
	// depth arrays), which lets the service answer from the graph's
	// distance-oracle index — when one is mounted and certifies every
	// target — without running any traversal. Requires Targets; the
	// response says how it was answered via "index" and "exact".
	DistanceOnly bool `json:"distance_only,omitempty"`
	// Approx (with DistanceOnly) accepts the oracle's upper bounds for
	// pairs it cannot certify instead of falling back to an exact BFS;
	// such responses carry "exact":false.
	Approx bool `json:"approx,omitempty"`
	// TimeoutMS overrides the service's default per-query deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (r Request) validate(g *graph.Graph) error {
	n := g.NumVertices()
	if int(r.Source) >= n {
		return fmt.Errorf("%w: source %d out of range (graph has %d vertices)", ErrBadRequest, r.Source, n)
	}
	for _, t := range r.Targets {
		if int(t) >= n {
			return fmt.Errorf("%w: target %d out of range", ErrBadRequest, t)
		}
	}
	if r.PathTo != nil && int(*r.PathTo) >= n {
		return fmt.Errorf("%w: path_to %d out of range", ErrBadRequest, *r.PathTo)
	}
	if r.DistanceOnly {
		if len(r.Targets) == 0 {
			return fmt.Errorf("%w: distance_only requires targets", ErrBadRequest)
		}
		if r.PathTo != nil || r.AllDepths {
			return fmt.Errorf("%w: distance_only excludes path_to and all_depths", ErrBadRequest)
		}
	}
	if r.Approx && !r.DistanceOnly {
		return fmt.Errorf("%w: approx requires distance_only", ErrBadRequest)
	}
	return nil
}

// TargetResult is the per-target slice of a Response.
type TargetResult struct {
	Vertex  uint32 `json:"vertex"`
	Reached bool   `json:"reached"`
	// Depth is the BFS depth, -1 if unreached.
	Depth int32 `json:"depth"`
	// Parent is the BFS-tree parent (== Vertex for the source), -1 if
	// unreached.
	Parent int64 `json:"parent"`
}

// Response is the answer to one Request.
type Response struct {
	Graph   string `json:"graph"`
	Source  uint32 `json:"source"`
	Steps   int    `json:"steps"`
	Visited int64  `json:"visited"`
	// Batched reports that the traversal ran inside a multi-source
	// sweep; Cached that it was served from the LRU without running.
	Batched bool `json:"batched"`
	Cached  bool `json:"cached"`
	// Index reports that the distance-oracle label join answered this
	// query with no traversal at all; Exact (set on distance-only
	// responses, from either path) certifies the reported distances —
	// false only for approx requests served from uncertified bounds.
	Index     bool           `json:"index,omitempty"`
	Exact     *bool          `json:"exact,omitempty"`
	ElapsedUS int64          `json:"elapsed_us"`
	Targets   []TargetResult `json:"targets,omitempty"`
	// Path is a shortest path Source..PathTo inclusive; PathFound
	// distinguishes "unreached" from "not asked".
	Path      []uint32 `json:"path,omitempty"`
	PathFound *bool    `json:"path_found,omitempty"`
	// Depths is the full depth array (-1 = unreached) when AllDepths.
	Depths []int32 `json:"depths,omitempty"`
}

// Traversal is an immutable completed-traversal snapshot: unlike a live
// bfs.Result it does not alias engine storage, so it can be cached and
// shared across waiters indefinitely. An engine traversal owns a copy of
// the engine's packed parent/depth array; a batched traversal is a view
// of one lane of its multi-source sweep, which it shares without copying
// with the other lanes of that sweep.
type Traversal struct {
	Source  uint32
	Steps   int
	Visited int64
	Batched bool
	Elapsed time.Duration

	dp    []uint64      // engine: packed parent/depth per vertex, core.INF = unvisited
	sweep *msbfs.Result // batched: the shared sweep,
	lane  int           // this traversal's lane in it,
	in    *graph.Graph  // and the in-adjacency that recovers its parents
}

// Depth returns the BFS depth of v, or -1 if unreached.
func (t *Traversal) Depth(v uint32) int32 {
	if t.sweep != nil {
		return t.sweep.Depth(t.lane, v)
	}
	if t.dp[v] == core.INF {
		return -1
	}
	return int32(uint32(t.dp[v]))
}

// Parent returns the BFS parent of v, or -1 if unreached.
func (t *Traversal) Parent(v uint32) int64 {
	if t.sweep != nil {
		return t.sweep.Parent(t.in, t.lane, v)
	}
	if t.dp[v] == core.INF {
		return -1
	}
	return int64(t.dp[v] >> 32)
}

// PathTo returns the tree path Source..v, or nil if v is unreached.
func (t *Traversal) PathTo(v uint32) []uint32 {
	d := t.Depth(v)
	if d < 0 {
		return nil
	}
	path := make([]uint32, d+1)
	for i := int(d); i >= 0; i-- {
		path[i] = v
		v = uint32(t.Parent(v))
	}
	return path
}

// AllDepths returns the depth of every vertex, -1 where unreached.
func (t *Traversal) AllDepths() []int32 {
	n := len(t.dp)
	if t.sweep != nil {
		n = t.sweep.NumVertices()
	}
	depths := make([]int32, n)
	for v := range depths {
		depths[v] = t.Depth(uint32(v))
	}
	return depths
}

// newEngineTraversal snapshots a live engine result (copying DP, which
// the engine will overwrite on its next run).
func newEngineTraversal(r *bfs.Result) *Traversal {
	return &Traversal{
		Source:  r.Source,
		dp:      append([]uint64(nil), r.DP...),
		Steps:   r.Steps,
		Visited: r.Visited,
		Elapsed: r.Elapsed,
	}
}

// newLaneTraversal is the view of one lane of a multi-source sweep. in
// is the in-adjacency of the swept graph (the graph itself when
// symmetric).
func newLaneTraversal(res *msbfs.Result, lane int, in *graph.Graph, elapsed time.Duration) *Traversal {
	return &Traversal{
		Source:  res.Sources[lane],
		Steps:   res.LaneSteps(lane),
		Visited: res.LaneVisited(lane),
		Batched: true,
		Elapsed: elapsed,
		sweep:   res,
		lane:    lane,
		in:      in,
	}
}

// buildResponse derives the caller's view from a traversal snapshot.
func buildResponse(gs *graphState, req Request, tr *Traversal, cached bool) (*Response, error) {
	resp := &Response{
		Graph:     gs.name,
		Source:    tr.Source,
		Steps:     tr.Steps,
		Visited:   tr.Visited,
		Batched:   tr.Batched,
		Cached:    cached,
		ElapsedUS: tr.Elapsed.Microseconds(),
	}
	if len(req.Targets) > 0 {
		resp.Targets = make([]TargetResult, len(req.Targets))
		for i, v := range req.Targets {
			d := tr.Depth(v)
			parent := tr.Parent(v)
			if req.DistanceOnly {
				// Distances only: elide parents so the BFS-fallback
				// targets array is byte-identical to an index-path one.
				parent = -1
			}
			resp.Targets[i] = TargetResult{Vertex: v, Reached: d >= 0, Depth: d, Parent: parent}
		}
	}
	if req.DistanceOnly {
		exact := true // a real traversal is exact by construction
		resp.Exact = &exact
	}
	if req.PathTo != nil {
		path := tr.PathTo(*req.PathTo)
		found := path != nil
		resp.Path, resp.PathFound = path, &found
	}
	if req.AllDepths {
		resp.Depths = tr.AllDepths()
	}
	return resp, nil
}

package main

import (
	"fmt"
	"sort"

	"fastbfs/bfs"
	"fastbfs/graph"
)

// sampleSources is how many distinct sources per run are checked in
// full against the serial reference, outside the timed window.
const sampleSources = 16

// answer is one served reply, kept for checking after the timed window.
type answer struct {
	Source, Target uint32
	// Depth is the reported depth of Target (-1: unreachable).
	Depth int32
	// WantPath marks a path_to query; Path and PathFound are its reply.
	WantPath  bool
	PathFound bool
	Path      []uint32
}

// checkPath verifies a path_to reply on its own: a found path is a real
// edge walk from the source to the target whose length equals the
// reported depth, and a missing path goes with an unreachable target.
func checkPath(g *graph.Graph, a answer) error {
	if !a.WantPath {
		return nil
	}
	if !a.PathFound {
		if a.Depth != -1 {
			return fmt.Errorf("source %d target %d: no path but depth %d", a.Source, a.Target, a.Depth)
		}
		return nil
	}
	p := a.Path
	if len(p) == 0 || p[0] != a.Source || p[len(p)-1] != a.Target {
		return fmt.Errorf("source %d target %d: path does not run from source to target", a.Source, a.Target)
	}
	if int32(len(p)-1) != a.Depth {
		return fmt.Errorf("source %d target %d: path has %d edges, depth is %d", a.Source, a.Target, len(p)-1, a.Depth)
	}
	for i := 1; i < len(p); i++ {
		if !g.HasEdge(p[i-1], p[i]) {
			return fmt.Errorf("source %d target %d: path step %d->%d is not an edge", a.Source, a.Target, p[i-1], p[i])
		}
	}
	return nil
}

// reference holds serial BFS depths for the sampled sources.
type reference struct {
	g      *graph.Graph
	depths map[uint32][]int32
}

func newReference(g *graph.Graph) *reference {
	return &reference{g: g, depths: make(map[uint32][]int32)}
}

// depth returns the serial-reference depth array for source.
func (r *reference) depth(source uint32) ([]int32, error) {
	if d, ok := r.depths[source]; ok {
		return d, nil
	}
	res, err := bfs.RunSerial(r.g, source)
	if err != nil {
		return nil, fmt.Errorf("serial reference from %d: %w", source, err)
	}
	d := make([]int32, r.g.NumVertices())
	for v := range d {
		d[v] = res.Depth(uint32(v))
	}
	r.depths[source] = d
	return d, nil
}

// sampleOf picks up to k distinct sources from srcs with a seeded
// draw, in a deterministic order.
func sampleOf(seed uint64, srcs []uint32, k int) []uint32 {
	set := make(map[uint32]bool)
	var distinct []uint32
	for _, s := range srcs {
		if !set[s] {
			set[s] = true
			distinct = append(distinct, s)
		}
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	r := newRand(seed, streamSample)
	r.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	return distinct[:min(k, len(distinct))]
}

// checkAnswers checks the path of every answered query, and every
// answer from a sampled source against the serial reference. answers[i]
// is nil for a query that got no answer. It returns the failure of each
// wrong answer by index.
func checkAnswers(ref *reference, seed uint64, answers []*answer) map[int]error {
	var srcs []uint32
	for _, a := range answers {
		if a != nil {
			srcs = append(srcs, a.Source)
		}
	}
	sampled := make(map[uint32]bool)
	for _, s := range sampleOf(seed, srcs, sampleSources) {
		sampled[s] = true
	}
	bad := make(map[int]error)
	for i, a := range answers {
		if a == nil {
			continue
		}
		if err := checkPath(ref.g, *a); err != nil {
			bad[i] = err
			continue
		}
		if !sampled[a.Source] {
			continue
		}
		d, err := ref.depth(a.Source)
		if err != nil {
			bad[i] = err
			continue
		}
		if want := d[a.Target]; a.Depth != want {
			bad[i] = fmt.Errorf("source %d target %d: depth %d, serial reference %d", a.Source, a.Target, a.Depth, want)
		}
	}
	return bad
}

// checkFullDepth compares a whole depth array with the serial reference.
func checkFullDepth(ref *reference, source uint32, got []int32) error {
	want, err := ref.depth(source)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("source %d: %d depths, graph has %d vertices", source, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("source %d vertex %d: depth %d, serial reference %d", source, v, got[v], want[v])
		}
	}
	return nil
}

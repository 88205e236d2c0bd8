package msbfs

import (
	"errors"
	"math/bits"
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/core"
	"fastbfs/internal/xrand"
)

func TestTranspose64(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 20; trial++ {
		var a, orig [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		orig = a
		transpose64(&a)
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				if a[r]>>uint(c)&1 != orig[c]>>uint(r)&1 {
					t.Fatalf("trial %d: bit (%d,%d) not transposed", trial, r, c)
				}
			}
		}
	}
}

func TestTranspose8(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 200; trial++ {
		x := rng.Uint64()
		y := transpose8(x)
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				if y>>uint(8*r+c)&1 != x>>uint(8*c+r)&1 {
					t.Fatalf("x=%#x: bit (%d,%d) not transposed", x, r, c)
				}
			}
		}
	}
}

// checkLanesAgainstSerial is the per-lane differential check of a sweep
// against independent serial runs: depths, Visited, Steps, the
// all-lanes extraction, and the recovered parents, which must be the
// first in-neighbour (in in's order) one level up, joined by an edge.
func checkLanesAgainstSerial(t *testing.T, g, in *graph.Graph, res *Result) {
	t.Helper()
	n := g.NumVertices()
	all := make([][]uint16, len(res.Sources))
	for k := range all {
		all[k] = make([]uint16, n)
	}
	allErr := res.AllDepthsInto(all, 0xFFFF, 3)
	for k, s := range res.Sources {
		ref, err := core.SerialBFS(g, s)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.LaneVisited(k); got != ref.Visited {
			t.Fatalf("lane %d (source %d): Visited %d, want %d", k, s, got, ref.Visited)
		}
		if got := res.LaneSteps(k); got != ref.Steps {
			t.Fatalf("lane %d (source %d): Steps %d, want %d", k, s, got, ref.Steps)
		}
		for v := 0; v < n; v++ {
			want := ref.Depth(uint32(v))
			if got := res.Depth(k, uint32(v)); got != want {
				t.Fatalf("lane %d (source %d): depth(%d) = %d, want %d", k, s, v, got, want)
			}
			if allErr == nil {
				wantU := uint16(0xFFFF)
				if want >= 0 {
					wantU = uint16(want)
				}
				if all[k][v] != wantU {
					t.Fatalf("lane %d: AllDepthsInto[%d] = %d, want %d", k, v, all[k][v], wantU)
				}
			}
			p := res.Parent(in, k, uint32(v))
			switch {
			case want < 0:
				if p != -1 {
					t.Fatalf("lane %d: unreached %d has parent %d", k, v, p)
				}
				continue
			case want == 0:
				if p != int64(v) {
					t.Fatalf("lane %d: source %d has parent %d", k, v, p)
				}
				continue
			}
			if p < 0 || ref.Depth(uint32(p)) != want-1 || !g.HasEdge(uint32(p), uint32(v)) {
				t.Fatalf("lane %d: parent(%d) = %d is not a tree edge at depth %d", k, v, p, want)
			}
			for _, u := range in.Neighbors1(uint32(v)) {
				if int64(u) == p {
					break
				}
				if ref.Depth(u) == want-1 {
					t.Fatalf("lane %d: parent(%d) = %d, but in-neighbour %d comes first", k, v, p, u)
				}
			}
		}
	}
	var wantErr bool
	for k := range res.Sources {
		if res.LaneSteps(k) > 0xFFFF {
			wantErr = true
		}
	}
	if wantErr != errors.Is(allErr, ErrDepthOverflow) || (allErr != nil && !wantErr) {
		t.Fatalf("AllDepthsInto error %v, overflow expected %v", allErr, wantErr)
	}
}

// laneSources picks lanes sources over n vertices, repeating the first
// two so duplicate sources share a lane mask.
func laneSources(lanes, n int) []uint32 {
	src := make([]uint32, lanes)
	for k := range src {
		src[k] = uint32((k*7919 + 3) % n)
	}
	if lanes > 2 {
		src[lanes-1] = src[0]
		src[lanes/2] = src[1]
	}
	return src
}

// mustGraph returns a fatal-on-error unwrapper for graph constructors.
func mustGraph(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// TestLanesMatchSerialReference differentially tests Run and RunHybrid
// at 1, 7 and 64 lanes over graph shapes that stress different parts of
// the lane state: skewed and symmetric R-MAT, a grid, a star (one hub
// level), a forest and a disconnected graph (unreached lanes), and
// self-loops.
func TestLanesMatchSerialReference(t *testing.T) {
	must := mustGraph(t)
	p := gen.Graph500Params(10, 8)
	directed := must(gen.RMAT(p, 21))
	p.Undirected = true
	undirected := must(gen.RMAT(p, 22))
	grid := must(gen.Grid2D(24, 30, 0, 1))

	const starN = 200
	var star []graph.Edge
	for v := uint32(1); v < starN; v++ {
		star = append(star, graph.Edge{U: 0, V: v}, graph.Edge{U: v, V: 0})
	}
	var forest []graph.Edge // binary trees of 63 vertices, edges away from each root
	for root := uint32(0); root < 630; root += 63 {
		for i := uint32(1); i < 63; i++ {
			forest = append(forest, graph.Edge{U: root + (i-1)/2, V: root + i})
		}
	}
	var disc []graph.Edge // two cycles and isolated vertices
	for i := uint32(0); i < 100; i++ {
		disc = append(disc, graph.Edge{U: i, V: (i + 1) % 100}, graph.Edge{U: 100 + i, V: 100 + (i+1)%100})
	}
	var loops []graph.Edge
	for i := uint32(0); i < 300; i++ {
		loops = append(loops, graph.Edge{U: i, V: i}, graph.Edge{U: i, V: (i * 7) % 300}, graph.Edge{U: i, V: i})
	}

	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat-directed", directed},
		{"rmat-undirected", undirected},
		{"grid", grid},
		{"star", must(graph.FromEdges(starN, star))},
		{"forest", must(graph.FromEdges(640, forest))},
		{"disconnected", must(graph.FromEdges(230, disc))},
		{"self-loops", must(graph.FromEdges(300, loops))},
	} {
		in := tc.g.Transpose()
		for _, lanes := range []int{1, 7, 64} {
			src := laneSources(lanes, tc.g.NumVertices())
			plain, err := Run(tc.g, src, 3)
			if err != nil {
				t.Fatal(err)
			}
			checkLanesAgainstSerial(t, tc.g, in, plain)
			var want int64
			for _, s := range src {
				ref, _ := core.SerialBFS(tc.g, s)
				want += ref.EdgesTraversed
			}
			if plain.LaneEdges != want {
				t.Fatalf("%s/%d: LaneEdges %d, want Σ serial %d", tc.name, lanes, plain.LaneEdges, want)
			}
			hybrid, err := RunHybrid(tc.g, in, src, 3)
			if err != nil {
				t.Fatal(err)
			}
			checkLanesAgainstSerial(t, tc.g, in, hybrid)
			if hybrid.Bytes() != 8*int64(tc.g.NumVertices())*int64(bits.Len(uint(hybrid.Steps-1))+1) {
				t.Fatalf("%s/%d: %d bytes pinned for %d levels", tc.name, lanes, hybrid.Bytes(), hybrid.Steps)
			}
		}
	}
}

// TestLanesAcrossPlaneBoundaries runs paths long enough that depths
// cross the plane boundaries 2^j-1 → 2^j — for the plain sweep past
// 65535, where uint16 extraction must overflow. The hybrid sweep gets a
// shorter path: on a path its α/β rule spends most levels bottom-up,
// each scanning every vertex.
func TestLanesAcrossPlaneBoundaries(t *testing.T) {
	for _, tc := range []struct {
		n      int
		hybrid bool
	}{{70000, false}, {5000, true}} {
		n := tc.n
		path := mustGraph(t)(gen.Grid2D(1, n, 0, 0))
		src := []uint32{0, uint32(n / 2), uint32(n - 1), 0}
		var res *Result
		var err error
		if tc.hybrid {
			res, err = RunHybrid(path, nil, src, 1)
		} else {
			res, err = Run(path, src, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkLanesAgainstSerial(t, path, path, res)
		for j := 1; 1<<j+1 < n; j++ {
			for _, d := range []int{1<<j - 1, 1 << j, 1<<j + 1} {
				if got := res.Depth(0, uint32(d)); got != int32(d) {
					t.Fatalf("n=%d hybrid=%v: depth(%d) = %d", n, tc.hybrid, d, got)
				}
			}
		}
		dst := make([]uint16, n)
		_, err = res.DepthsInto(0, dst, 0xFFFF)
		if overflow := n-1 >= 0xFFFF; overflow != errors.Is(err, ErrDepthOverflow) {
			t.Fatalf("n=%d: lane 0 reaches depth %d, DepthsInto err %v", n, n-1, err)
		}
		maxD, err := res.DepthsInto(1, dst, 0xFFFF)
		if err != nil || maxD != uint32(n/2) {
			t.Fatalf("n=%d: middle lane max depth %d, err %v", n, maxD, err)
		}
	}
}

package msbfs

import (
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/core"
)

// TestHybridSweepMatchesSerial runs hybrid multi-source sweeps over
// directed and undirected RMAT graphs at several batch sizes and worker
// counts, demanding per-lane serial parity.
func TestHybridSweepMatchesSerial(t *testing.T) {
	directed, err := gen.RMAT(gen.Graph500Params(11, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	p := gen.Graph500Params(11, 8)
	p.Undirected = true
	undirected, err := gen.RMAT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		in   *graph.Graph
	}{
		{"directed", directed, directed.Transpose()},
		{"undirected", undirected, nil}, // nil in: symmetric shortcut
	}
	for _, tc := range cases {
		for _, lanes := range []int{1, 7, 64} {
			for _, workers := range []int{1, 4} {
				sources := make([]uint32, lanes)
				for k := range sources {
					sources[k] = uint32((k * 131) % tc.g.NumVertices())
				}
				res, err := RunHybrid(tc.g, tc.in, sources, workers)
				if err != nil {
					t.Fatal(err)
				}
				checkLanesAgainstSerial(t, tc.g, tc.g.Transpose(), res)
				if len(res.Directions) != res.Steps {
					t.Fatalf("%s/l%d/w%d: %d directions for %d steps",
						tc.name, lanes, workers, len(res.Directions), res.Steps)
				}
				if res.EdgesScanned <= 0 || res.LaneEdges < res.EdgesScanned {
					t.Fatalf("%s/l%d/w%d: accounting EdgesScanned=%d LaneEdges=%d",
						tc.name, lanes, workers, res.EdgesScanned, res.LaneEdges)
				}
			}
		}
	}
}

// TestHybridSweepSwitches checks a dense full batch on a scale-free
// graph actually takes bottom-up levels (the whole point), and that the
// plain sweep reports no directions.
func TestHybridSweepSwitches(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(12, 16), 9)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]uint32, 64)
	for k := range sources {
		sources[k] = uint32(k)
	}
	res, err := RunHybrid(g, g.Transpose(), sources, 4)
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, d := range res.Directions {
		if d == core.DirBottomUp {
			saw = true
		}
	}
	if !saw {
		t.Errorf("no bottom-up level on scale-12/ef16 batch (dirs=%s)",
			core.DirectionString(res.Directions))
	}
	plain, err := Run(g, sources, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Directions != nil {
		t.Error("plain sweep reported directions")
	}
	// Both sweeps must agree on every lane (depths both serial-exact).
	for k := range sources {
		for v := 0; v < g.NumVertices(); v++ {
			if res.Depth(k, uint32(v)) != plain.Depth(k, uint32(v)) {
				t.Fatalf("lane %d vertex %d: hybrid %d, plain %d",
					k, v, res.Depth(k, uint32(v)), plain.Depth(k, uint32(v)))
			}
		}
	}
}

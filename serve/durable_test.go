package serve

// In-process tests of the durable control plane: journaled mutations,
// readiness gating during recovery, mmap residency accounting, and the
// transpose-cache release on every path a graph leaves the table.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
)

// graphNames lists the resident graph names, sorted.
func graphNames(s *Service) []string {
	var names []string
	for _, gi := range s.Graphs() {
		names = append(names, gi.Name)
	}
	sort.Strings(names)
	return names
}

func shutdown(t *testing.T, s *Service) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestDurableRecoverRoundtrip(t *testing.T) {
	stateDir := t.TempDir()
	g1, err := gen.Grid2D(12, 12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.Grid2D(9, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p1 := saveGraph(t, g1, "g1.csr")
	p2 := saveGraph(t, g2, "g2.csr")
	mmapTrue := true

	s1 := New(Config{StateDir: stateDir})
	if _, err := s1.Recover(); err != nil {
		t.Fatalf("recover (empty dir): %v", err)
	}
	if _, err := s1.LoadGraphOptions("a", p1, LoadOptions{Mmap: &mmapTrue}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.LoadGraph("b", p2); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.LoadGraph("gone", p2); err != nil {
		t.Fatal(err)
	}
	if err := s1.UnloadGraph("gone"); err != nil {
		t.Fatal(err)
	}
	st := s1.Stats()
	if st.JournalSeq != 4 {
		t.Fatalf("journal seq = %d, want 4", st.JournalSeq)
	}
	if st.ResidentMappedBytes != graphResidentBytes(g1) {
		t.Fatalf("resident mapped = %d, want %d", st.ResidentMappedBytes, graphResidentBytes(g1))
	}
	wantDepths, err := s1.Query(context.Background(), Request{Graph: "a", Source: 0, AllDepths: true})
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, s1)

	// Restart: not ready (and loads rejected) until Recover completes.
	s2 := New(Config{StateDir: stateDir})
	defer shutdown(t, s2)
	if rs := s2.Ready(); rs.Ready || !rs.Recovering {
		t.Fatalf("pre-recovery ready state = %+v, want not ready, recovering", rs)
	}
	if _, err := s2.LoadGraph("x", p2); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("load before Recover: err = %v, want ErrNotRecovered", err)
	}
	sum, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !reflect.DeepEqual(sum.Graphs, []string{"a", "b"}) || len(sum.Failed) != 0 {
		t.Fatalf("recovery summary = %+v, want graphs a,b", sum)
	}
	if rs := s2.Ready(); !rs.Ready || rs.Recovering {
		t.Fatalf("post-recovery ready state = %+v", rs)
	}
	if got := graphNames(s2); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("recovered graphs = %v", got)
	}
	// The mmap mode is itself durable.
	for _, gi := range s2.Graphs() {
		if gi.Name == "a" && !gi.Mapped {
			t.Fatal("graph a recovered without its recorded mmap mode")
		}
		if gi.Name == "b" && gi.Mapped {
			t.Fatal("graph b recovered mapped but was loaded on-heap")
		}
	}
	got, err := s2.Query(context.Background(), Request{Graph: "a", Source: 0, AllDepths: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Depths, wantDepths.Depths) {
		t.Fatal("depths after recovery differ from pre-restart depths")
	}
	if st := s2.Stats(); st.RecoveryMS < 0 || st.JournalSeq != 4 {
		t.Fatalf("post-recovery stats = %+v", st)
	}
	if _, err := s2.Recover(); err == nil {
		t.Fatal("second Recover did not error")
	}
}

func TestDurableTornTailRecovered(t *testing.T) {
	stateDir := t.TempDir()
	g, err := gen.Grid2D(10, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := saveGraph(t, g, "g.csr")

	s1 := New(Config{StateDir: stateDir})
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.LoadGraph("a", p); err != nil {
		t.Fatal(err)
	}
	shutdown(t, s1)
	// A crash mid-append leaves a partial frame at the tail.
	j := filepath.Join(stateDir, journalName)
	f, err := os.OpenFile(j, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x80, 0x00, 0x00, 0x00, 0xaa, 0xbb}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := New(Config{StateDir: stateDir})
	defer shutdown(t, s2)
	sum, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover over torn tail: %v", err)
	}
	if !reflect.DeepEqual(sum.Graphs, []string{"a"}) {
		t.Fatalf("recovered %v, want a", sum.Graphs)
	}
	if sum.Journal.TornBytes != 6 {
		t.Fatalf("torn bytes = %d, want 6", sum.Journal.TornBytes)
	}
}

func TestDurableEvictionJournaled(t *testing.T) {
	stateDir := t.TempDir()
	small, err := gen.Grid2D(10, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := gen.Grid2D(40, 40, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pSmall := saveGraph(t, small, "small.csr")
	pBig := saveGraph(t, big, "big.csr")

	budget := graphResidentBytes(big) + graphResidentBytes(small)
	s1 := New(Config{StateDir: stateDir, MaxResidentBytes: budget})
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.LoadGraph("old", pSmall); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.LoadGraph("keep", pSmall); err != nil {
		t.Fatal(err)
	}
	// Loading big exceeds the budget; "old" (LRU) must be evicted, and
	// the eviction journaled so a restart does not resurrect it.
	if _, err := s1.Query(context.Background(), Request{Graph: "keep", Source: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.LoadGraph("big", pBig); err != nil {
		t.Fatal(err)
	}
	if got := graphNames(s1); !reflect.DeepEqual(got, []string{"big", "keep"}) {
		t.Fatalf("after eviction: %v", got)
	}
	shutdown(t, s1)

	s2 := New(Config{StateDir: stateDir, MaxResidentBytes: budget})
	defer shutdown(t, s2)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := graphNames(s2); !reflect.DeepEqual(got, []string{"big", "keep"}) {
		t.Fatalf("recovered %v, want big,keep (evicted graph resurrected?)", got)
	}
}

func TestDurableMissingFileSkippedAtRecovery(t *testing.T) {
	stateDir := t.TempDir()
	g, err := gen.Grid2D(10, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pKeep := saveGraph(t, g, "keep.csr")
	pGone := saveGraph(t, g, "gone.csr")

	s1 := New(Config{StateDir: stateDir})
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.LoadGraph("keep", pKeep); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.LoadGraph("gone", pGone); err != nil {
		t.Fatal(err)
	}
	shutdown(t, s1)
	if err := os.Remove(pGone); err != nil {
		t.Fatal(err)
	}

	// Never refuse to boot: the missing graph is reported, not fatal.
	s2 := New(Config{StateDir: stateDir})
	defer shutdown(t, s2)
	sum, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !reflect.DeepEqual(sum.Graphs, []string{"keep"}) || !reflect.DeepEqual(sum.Failed, []string{"gone"}) {
		t.Fatalf("summary = %+v, want keep recovered, gone failed", sum)
	}
	if rs := s2.Ready(); !rs.Ready {
		t.Fatalf("service not ready after partial recovery: %+v", rs)
	}
}

// TestTransposeReleasedOnRetirePaths is the leak regression test for
// the package-level transpose cache: every path a graph leaves the
// serving table (unload, budget eviction, atomic replacement) must
// release its cached in-adjacency, or both CSRs stay reachable forever.
// Shutdown releases those of the graphs still resident.
func TestTransposeReleasedOnRetirePaths(t *testing.T) {
	mk := func(seed uint64) *graphPair {
		g, err := gen.UniformRandom(400, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		return &graphPair{g: g, path: saveGraph(t, g, "g.csr")}
	}

	t.Run("unload", func(t *testing.T) {
		p := mk(1)
		s := New(Config{})
		defer shutdown(t, s)
		if err := s.AddGraph("u", p.g); err != nil {
			t.Fatal(err)
		}
		bfs.InAdjacency(p.g) // what a hybrid traversal would cache
		if err := s.UnloadGraph("u"); err != nil {
			t.Fatal(err)
		}
		if bfs.InAdjacencyCached(p.g) {
			t.Fatal("transpose still cached after UnloadGraph — leak")
		}
	})

	t.Run("evict", func(t *testing.T) {
		p1, p2 := mk(2), mk(3)
		budget := graphResidentBytes(p1.g) + graphResidentBytes(p2.g)/2
		s := New(Config{MaxResidentBytes: budget})
		defer shutdown(t, s)
		if err := s.AddGraph("victim", p1.g); err != nil {
			t.Fatal(err)
		}
		bfs.InAdjacency(p1.g)
		// Loading the second graph must evict the idle first one.
		if _, err := s.LoadGraph("second", p2.path); err != nil {
			t.Fatal(err)
		}
		if got := graphNames(s); !reflect.DeepEqual(got, []string{"second"}) {
			t.Fatalf("graphs = %v, want just second", got)
		}
		if bfs.InAdjacencyCached(p1.g) {
			t.Fatal("transpose still cached after LRU eviction — leak")
		}
	})

	t.Run("replace", func(t *testing.T) {
		p := mk(4)
		s := New(Config{})
		defer shutdown(t, s)
		if err := s.AddGraph("r", p.g); err != nil {
			t.Fatal(err)
		}
		bfs.InAdjacency(p.g)
		if _, err := s.LoadGraph("r", p.path); err != nil { // atomic replace
			t.Fatal(err)
		}
		if bfs.InAdjacencyCached(p.g) {
			t.Fatal("old graph's transpose still cached after replacement — leak")
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		p := mk(5)
		s := New(Config{})
		if err := s.AddGraph("s", p.g); err != nil {
			t.Fatal(err)
		}
		bfs.InAdjacency(p.g)
		if _, err := s.Query(context.Background(), Request{Graph: "s", Source: 1}); err != nil {
			t.Fatal(err)
		}
		shutdown(t, s)
		if bfs.InAdjacencyCached(p.g) {
			t.Fatal("resident graph's transpose still cached after Shutdown — leak")
		}
	})
}

type graphPair struct {
	g    *graph.Graph
	path string
}

package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"fastbfs/graph"
)

// Random streams drawn from one workload seed. Each consumer gets its
// own stream so adding draws to one never shifts another.
const (
	streamGraph uint64 = iota + 1
	streamSchedule
	streamQueries
	streamSample
	streamPerm
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// graphSeed derives the generator seed of a workload's graph.
func graphSeed(seed uint64) uint64 { return newRand(seed, streamGraph).Uint64() }

// openSchedule returns the send offsets of an open loop at rate
// queries/s over window: ⌊rate·window⌉ arrival times drawn uniformly
// within it, which is a Poisson process conditioned on its count. The
// fixed count keeps arrival-count noise out of goodput.
func openSchedule(seed uint64, rate float64, window time.Duration) []time.Duration {
	n := int(rate*window.Seconds() + 0.5)
	r := newRand(seed, streamSchedule)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Int64N(int64(window)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// nonIsolated lists the vertices with at least one out-edge: sources
// are drawn from these, as Graph500 draws its roots.
func nonIsolated(g *graph.Graph) []uint32 {
	var vs []uint32
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > 0 {
			vs = append(vs, uint32(v))
		}
	}
	return vs
}

// picker draws vertices from a pool, uniformly or Zipf-distributed over
// a seeded permutation of it (so the popular vertices are not simply
// the low ids).
type picker struct {
	r    *rand.Rand
	pool []uint32
	zipf *rand.Zipf
}

func uniformPicker(r *rand.Rand, pool []uint32) *picker { return &picker{r: r, pool: pool} }

func zipfPicker(r *rand.Rand, pool []uint32, s float64, permSeed uint64) *picker {
	perm := append([]uint32(nil), pool...)
	pr := newRand(permSeed, streamPerm)
	pr.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &picker{r: r, pool: perm, zipf: rand.NewZipf(r, s, 1, uint64(len(perm)-1))}
}

func (p *picker) next() uint32 {
	if p.zipf != nil {
		return p.pool[p.zipf.Uint64()]
	}
	return p.pool[p.r.IntN(len(p.pool))]
}

// distinct draws k pairwise-distinct vertices (k must not exceed the
// pool size).
func (p *picker) distinct(k int) []uint32 {
	seen := make(map[uint32]bool, k)
	out := make([]uint32, 0, k)
	for len(out) < k {
		v := p.next()
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"fastbfs/graph"
)

const (
	pointRate  = 250 // point-open arrivals per second
	oracleRate = 250 // oracle-http requests per second
	batchSize  = 64  // batch64 sources per batch, Graph500's root count
	zipfS      = 1.1 // oracle-http source skew
)

// serveWorkload is the part the three serve workloads share: generate
// and save the graph, set up the service setupReps times, warm up,
// run the timed window and check it, then (traced) replay the layers.
type serveWorkload struct {
	graph     func(seed uint64) (*graph.Graph, error)
	index     bool
	http      bool
	cacheFill int // hottest sources to put in the cache at set-up
	// drive runs one load from start for window: warm (untimed) or
	// timed, with queries drawn from seed.
	drive func(l *serveLoad, pool []uint32, seed uint64, start time.Time, window time.Duration)
}

func (w serveWorkload) run(r *runner) error {
	g, err := w.graph(r.seed)
	if err != nil {
		return err
	}
	path, err := writeGraph(r, g, "graph.csr")
	if err != nil {
		return err
	}
	pool := nonIsolated(g)
	warm := uniformPicker(newRand(warmSeed(r.seed), streamQueries), pool).distinct(2 + batchSize)
	var hot []uint32
	if w.cacheFill > 0 {
		hot = zipfPicker(newRand(r.seed, streamQueries), pool, zipfS, r.seed).pool[:w.cacheFill]
	}
	var env *serveEnv
	var calib, builds []float64
	teardown, err := r.repeatSetup(func(int) (func(), error) {
		e, td, err := setupServe(r, path, w.index, w.http, warm, hot)
		env = e
		if e != nil {
			calib = append(calib, e.calibMS)
			builds = append(builds, e.indexS)
		}
		return td, err
	})
	if err != nil {
		return err
	}
	defer teardown()

	wl := newServeLoad(r, env, w.http, true)
	w.drive(wl, pool, warmSeed(r.seed), time.Now(), warmWindow)
	if wl.warmErr != nil {
		return fmt.Errorf("warm-up: %w", wl.warmErr)
	}

	l := newServeLoad(r, env, w.http, false)
	before := env.svc.Stats()
	r.measureWindow(func(start time.Time) { w.drive(l, pool, r.seed, start, r.window) })
	after := env.svc.Stats()
	l.finish(g, before, after)
	if !r.traced {
		return nil
	}
	r.layers.add("tune.calibrate_ms", median(calib), "ms", len(calib))
	if w.index {
		if err := indexLayers(r, env.svc, path, builds, l); err != nil {
			return err
		}
	}
	prof := env.svc.TuneProfile(graphName)
	return replayLayers(r, path, g, prof, l.sources(), batchesOf(l.sources()))
}

func runPointOpen(r *runner) error {
	return serveWorkload{graph: rmatGraph, drive: drivePointOpen}.run(r)
}

func runBatch64(r *runner) error {
	return serveWorkload{graph: rmatGraph, drive: driveBatch64}.run(r)
}

func runOracleHTTP(r *runner) error {
	return serveWorkload{
		graph:     gridGraph,
		index:     true,
		http:      true,
		cacheFill: 32, // the service's default LRU capacity
		drive:     driveOracle,
	}.run(r)
}

// drivePointOpen: open loop at pointRate, uniform source and target,
// path_to.
func drivePointOpen(l *serveLoad, pool []uint32, seed uint64, start time.Time, window time.Duration) {
	pk := uniformPicker(newRand(seed, streamQueries), pool)
	sched := openSchedule(seed, pointRate, window)
	qs := make([]servedQuery, len(sched))
	for i := range qs {
		qs[i] = servedQuery{source: pk.next(), target: pk.next()}
	}
	base := l.slots(qs)
	openLoop(start, sched, func(i int, due time.Time) {
		l.do(base+i, qs[i], due, i%2 == 0)
	})
}

// driveBatch64: one caller sends batchSize distinct uniform sources at
// once, waits for all of them, and repeats until the window ends.
func driveBatch64(l *serveLoad, pool []uint32, seed uint64, start time.Time, window time.Duration) {
	pk := uniformPicker(newRand(seed, streamQueries), pool)
	for b := 0; time.Since(start) < window; b++ {
		qs := make([]servedQuery, batchSize)
		for i, s := range pk.distinct(batchSize) {
			qs[i] = servedQuery{source: s, target: pk.next()}
		}
		base := l.slots(qs)
		due := time.Now()
		var wg sync.WaitGroup
		for i := range qs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				l.do(base+i, qs[i], due, b%2 == 0)
			}(i)
		}
		wg.Wait()
	}
}

// driveOracle: open loop at oracleRate over HTTP, Zipf sources over a
// permutation fixed by the run's seed, uniform targets, three of four
// distance_only and the fourth path_to.
func driveOracle(l *serveLoad, pool []uint32, seed uint64, start time.Time, window time.Duration) {
	rnd := newRand(seed, streamQueries)
	src := zipfPicker(rnd, pool, zipfS, l.r.seed)
	tgt := uniformPicker(rnd, pool)
	sched := openSchedule(seed, oracleRate, window)
	qs := make([]servedQuery, len(sched))
	for i := range qs {
		qs[i] = servedQuery{source: src.next(), target: tgt.next(), distanceOnly: i%4 != 3}
	}
	base := l.slots(qs)
	openLoop(start, sched, func(i int, due time.Time) {
		l.do(base+i, qs[i], due, i%2 == 0)
	})
}

// batchesOf groups sources into batches of batchSize distinct ones, in
// order. For batch64 these are exactly the batches it sent.
func batchesOf(srcs []uint32) [][]uint32 {
	var out [][]uint32
	var cur []uint32
	seen := make(map[uint32]bool)
	for _, s := range srcs {
		if seen[s] {
			continue
		}
		seen[s] = true
		cur = append(cur, s)
		if len(cur) == batchSize {
			out = append(out, cur)
			cur, seen = nil, make(map[uint32]bool)
		}
	}
	return out
}

// writeGraph saves g in the run directory for the program to load.
func writeGraph(r *runner, g *graph.Graph, name string) (string, error) {
	path := filepath.Join(r.dir, name)
	return path, g.Save(path)
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/index"
	"fastbfs/internal/msbfs"
	"fastbfs/internal/numa"
	"fastbfs/serve"
	"fastbfs/tune"
)

// Replay sizes: enough runs for a stable median, few enough that a
// traced run's replays take a few seconds at most.
const (
	replaySources       = 32
	instrumentedSources = 8
	replayBatches       = 4
	loadReps            = 3
	indexPairs          = 4096
)

// replayLayers times the layers below serve on the workload's own
// inputs, outside the timed window: graph loading, the per-source
// engine with the tuned profile (plain and instrumented), and the
// batched sweep.
func replayLayers(r *runner, path string, g *graph.Graph, prof *tune.Profile, sources []uint32, batches [][]uint32) error {
	m := &r.layers
	var loads []float64
	for i := 0; i < loadReps; i++ {
		start := time.Now()
		if _, err := graph.Load(path); err != nil {
			return fmt.Errorf("replaying graph load: %w", err)
		}
		loads = append(loads, time.Since(start).Seconds())
	}
	m.add("graph.load_s", median(loads), "s", len(loads))
	m.add("graph.resident_mb", float64(8*len(g.Offsets)+4*len(g.Neighbors))/(1<<20), "MiB", 0)

	srcs := sampleOf(r.seed, sources, replaySources)
	opts := prof.Apply(bfs.Default(1))
	runTimes, mteps, err := replayEngine(g, opts, srcs)
	if err != nil {
		return err
	}
	m.add("bfs.run_p50_ms", median(runTimes), "ms", len(runTimes))
	m.add("bfs.mteps", harmonicMean(mteps), "MTEPS", len(mteps))
	if err := instrumentedLayers(r, g, opts, srcs[:min(instrumentedSources, len(srcs))]); err != nil {
		return err
	}

	var in *graph.Graph
	if opts.Hybrid {
		in = bfs.InAdjacency(g)
		defer bfs.ReleaseInAdjacency(g)
	}
	var sweep, perSource []float64
	var lane, scanned int64
	for _, b := range batches[:min(replayBatches, len(batches))] {
		var res *msbfs.Result
		if in != nil {
			res, err = msbfs.RunHybrid(g, in, b, runtime.GOMAXPROCS(0))
		} else {
			res, err = msbfs.Run(g, b, runtime.GOMAXPROCS(0))
		}
		if err != nil {
			return fmt.Errorf("replaying a batched sweep: %w", err)
		}
		sweep = append(sweep, ms(res.Elapsed))
		perSource = append(perSource, ms(res.Elapsed)/float64(len(b)))
		lane += res.LaneEdges
		scanned += res.EdgesScanned
	}
	m.add("msbfs.sweep_p50_ms", median(sweep), "ms", len(sweep))
	m.add("msbfs.ms_per_source", median(perSource), "ms", len(perSource))
	m.add("msbfs.sharing", ratio(float64(lane), float64(scanned)), "ratio", len(sweep))
	return nil
}

// replayEngine runs each source once on one engine after a warm-up run
// and returns the run times (ms) and rates (MTEPS).
func replayEngine(g *graph.Graph, opts bfs.Options, srcs []uint32) (times, mteps []float64, err error) {
	e, err := bfs.NewEngine(g, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("replaying the engine: %w", err)
	}
	if len(srcs) == 0 {
		return nil, nil, nil
	}
	if _, err := e.Run(srcs[0]); err != nil {
		return nil, nil, err
	}
	for _, s := range srcs {
		res, err := e.Run(s)
		if err != nil {
			return nil, nil, fmt.Errorf("replaying source %d: %w", s, err)
		}
		times = append(times, ms(res.Elapsed))
		mteps = append(mteps, res.MTEPS())
	}
	return times, mteps, nil
}

// instrumentedLayers replays sources with Options.Instrument for the
// paper's phase split, the direction choices, duplicate appends and
// the computed bytes per edge.
func instrumentedLayers(r *runner, g *graph.Graph, opts bfs.Options, srcs []uint32) error {
	opts.Instrument = true
	e, err := bfs.NewEngine(g, opts)
	if err != nil {
		return fmt.Errorf("replaying the instrumented engine: %w", err)
	}
	var p1, p2, rearr, total time.Duration
	var bottomUp, appends, visited, edges, bytes int64
	for _, s := range srcs {
		res, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("replaying source %d instrumented: %w", s, err)
		}
		t := res.Trace
		p1 += t.TimePhase1
		p2 += t.TimePhase2
		rearr += t.TimeRearr
		total += res.Elapsed
		for _, st := range t.Steps {
			if st.BottomUp {
				bottomUp++
			}
		}
		appends += res.Appends
		visited += res.Visited
		edges += res.EdgesTraversed
		if t.Traffic != nil {
			for _, st := range numa.Structures() {
				bytes += t.Traffic.Total(st)
			}
		}
	}
	n := len(srcs)
	m := &r.layers
	m.add("bfs.phase1_share", ratio(float64(p1), float64(total)), "ratio", n)
	m.add("bfs.phase2_share", ratio(float64(p2), float64(total)), "ratio", n)
	m.add("bfs.rearr_share", ratio(float64(rearr), float64(total)), "ratio", n)
	m.add("bfs.bottomup_levels", ratio(float64(bottomUp), float64(n)), "count", n)
	m.add("bfs.dup_ratio", ratio(float64(appends-visited), float64(visited)), "ratio", n)
	m.add("bfs.bytes_per_edge_computed", ratio(float64(bytes), float64(edges)), "bytes", n)
	return nil
}

// indexLayers reports the oracle's set-up cost and size, and replays
// Index.Query on the window's distance-only pairs against the artifact
// the service saved.
func indexLayers(r *runner, svc *serve.Service, path string, builds []float64, l *serveLoad) error {
	st, err := svc.IndexStatus(graphName)
	if err != nil {
		return err
	}
	m := &r.layers
	m.add("index.build_s", median(builds), "s", len(builds))
	m.add("index.label_mb", float64(st.LabelBytes)/(1<<20), "MiB", 0)
	ix, err := index.Load(path + ".idx")
	if err != nil {
		return fmt.Errorf("loading the index artifact: %w", err)
	}
	var lat []float64
	for _, q := range l.queries {
		if !q.distanceOnly {
			continue
		}
		start := time.Now()
		ix.Query(q.source, q.target)
		lat = append(lat, us(time.Since(start)))
		if len(lat) == indexPairs {
			break
		}
	}
	m.addQ("index.query_p50_us", percentile(lat, 0.5), "us")
	return nil
}

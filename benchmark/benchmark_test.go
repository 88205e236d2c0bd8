package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fastbfs/graph"
	"fastbfs/graph/gen"
)

func TestOpenScheduleDeterministic(t *testing.T) {
	const rate, window = 250, 4 * time.Second
	a := openSchedule(7, rate, window)
	b := openSchedule(7, rate, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, rate, window)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != rate*4 {
		t.Fatalf("schedule has %d arrivals, want %d", len(a), rate*4)
	}
	for i, at := range a {
		if at < 0 || at >= window {
			t.Fatalf("arrival %d at %v is outside the window", i, at)
		}
		if i > 0 && at < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, at, i-1, a[i-1])
		}
	}
}

func TestQueryDrawsDeterministic(t *testing.T) {
	pool := []uint32{3, 5, 8, 13, 21, 34, 55, 89}
	for _, mk := range []func(seed uint64) *picker{
		func(seed uint64) *picker { return uniformPicker(newRand(seed, streamQueries), pool) },
		func(seed uint64) *picker { return zipfPicker(newRand(seed, streamQueries), pool, zipfS, seed) },
	} {
		a, b := mk(3).distinct(6), mk(3).distinct(6)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("the same seed drew %v and %v", a, b)
		}
		seen := map[uint32]bool{}
		for _, v := range a {
			if seen[v] {
				t.Fatalf("distinct drew %d twice: %v", v, a)
			}
			seen[v] = true
		}
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	q := percentile(xs, 0.99)
	if q.Value != 990 || q.N != 1000 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 over 1000 samples", q)
	}
	if got := beyond(q.N, 0.99); got != 10 {
		t.Fatalf("%d samples beyond p99 of 1000, want 10", got)
	}
	if q := percentile([]float64{4, 1, 3, 2}, 0.5); q.Value != 2 || q.N != 4 {
		t.Fatalf("p50 of 1..4 = %+v, want 2 over 4 samples", q)
	}
	if q := percentile(nil, 0.5); q.N != 0 {
		t.Fatalf("empty sample gave %+v", q)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := harmonicMean([]float64{1, 2, 4}); math.Abs(got-12.0/7) > 1e-12 {
		t.Fatalf("harmonic mean of 1,2,4 = %v, want 12/7", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100): two overlapping children [10,40) and [30,60), and a
	// child [90,120) sticking out of it. The first child has its own
	// child [15,25).
	spans := []span{
		{ID: 1, Req: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Req: 1, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Req: 1, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Req: 1, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Req: 1, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	sum := summarize(spans)
	if sum.Requests != 1 || sum.SelfMS["a"] != ms(20) || sum.SelfMS["d"] != ms(10) {
		t.Fatalf("summary %+v", sum)
	}
}

func TestCoverageCountsMeasuredLayersOnly(t *testing.T) {
	// An HTTP request [0,100): dispatch lateness [0,20), the round trip
	// [20,100) with the handler [30,90) inside it, and the traversal
	// [50,90) and queue wait [30,50) inside that. The harness's 20 leave
	// 80 of the program's, of which the handler covers 60.
	spans := []span{
		{ID: 1, Req: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Req: 1, Parent: 1, Name: "harness.dispatch", Start: 0, End: 20},
		{ID: 3, Req: 1, Parent: 1, Name: "serve.http", Start: 20, End: 100},
		{ID: 4, Req: 1, Parent: 3, Name: "serve.handler", Start: 30, End: 90},
		{ID: 5, Req: 1, Parent: 4, Name: "serve.traversal", Start: 50, End: 90},
		{ID: 6, Req: 1, Parent: 4, Name: "serve.queue", Start: 30, End: 50},
	}
	if got := summarize(spans).CoveredShare; math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("covered share %v, want 0.75", got)
	}
	// A missing inner span lowers the share: without the handler span
	// only the traversal's 40 are measured.
	without := append(append([]span(nil), spans[:3]...), spans[4:]...)
	if got := summarize(without).CoveredShare; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("covered share without the handler %v, want 0.5", got)
	}
}

func TestBatchedQueueWaitExcludesWholeSweep(t *testing.T) {
	r := &runner{tr: newTracer()}
	l := &serveLoad{r: r}
	t0 := time.Unix(1000, 0)
	ms12 := t0.Add(12 * time.Millisecond)
	l.traced = []answered{
		// A lane of a 10-wide sweep: ElapsedUS is a tenth of the sweep.
		{req: 1, parent: 1, lo: t0, end: ms12, elapsed: time.Millisecond, batched: true},
		// An unbatched traversal of 5 ms.
		{req: 2, parent: 2, lo: t0, end: ms12, elapsed: 5 * time.Millisecond},
		// A lane whose sweep would outlast its own call is capped at it.
		{req: 3, parent: 3, lo: t0, end: ms12, elapsed: 2 * time.Millisecond, batched: true},
	}
	l.layerSpans(10)
	if got := r.samplesOf("serve.sweep"); !reflect.DeepEqual(got, []float64{10, 12}) {
		t.Fatalf("sweep times %v ms, want [10 12]", got)
	}
	if got := r.samplesOf("serve.traversal"); !reflect.DeepEqual(got, []float64{5}) {
		t.Fatalf("traversal times %v ms, want [5]", got)
	}
	if got := r.samplesOf("serve.queue_wait"); !reflect.DeepEqual(got, []float64{2, 7, 0}) {
		t.Fatalf("queue waits %v ms, want [2 7 0]", got)
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	got := covered(0, 10, []span{{Start: -5, End: 2}, {Start: 1, End: 3}, {Start: 5, End: 6}, {Start: 9, End: 30}})
	if got != 3+1+1 {
		t.Fatalf("covered %d, want 5", got)
	}
}

func TestOutputCheckCatchesCorruptDepth(t *testing.T) {
	// On a shortcut-free grid vertex r*cols+c is at depth r+c from 0.
	g, err := gen.Grid2D(6, 6, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(g)
	good := []*answer{
		{Source: 0, Target: 35, Depth: 10, WantPath: true, PathFound: true,
			Path: []uint32{0, 1, 2, 3, 4, 5, 11, 17, 23, 29, 35}},
		{Source: 0, Target: 7, Depth: 2},
		nil, // a query that got no answer
	}
	if bad := checkAnswers(ref, 1, good); len(bad) != 0 {
		t.Fatalf("correct answers flagged: %v", bad)
	}

	corrupt := []*answer{{Source: 0, Target: 7, Depth: 3}}
	if bad := checkAnswers(ref, 1, corrupt); bad[0] == nil {
		t.Fatal("a corrupted depth passed the check")
	}

	for _, p := range [][]uint32{
		{0, 1, 2, 3, 4, 5, 11, 17, 23, 29, 34}, // ends elsewhere
		{0, 1, 2, 3, 4, 5, 10, 17, 23, 29, 35}, // 5->10 is no edge
		{0, 1, 2, 3, 4, 5, 11, 17, 23, 35},     // too short for depth 10
	} {
		a := &answer{Source: 0, Target: 35, Depth: 10, WantPath: true, PathFound: true, Path: p}
		if err := checkPath(g, *a); err == nil {
			t.Fatalf("bad path %v passed the check", p)
		}
	}

	d, err := ref.depth(0)
	if err != nil {
		t.Fatal(err)
	}
	full := append([]int32(nil), d...)
	if err := checkFullDepth(ref, 0, full); err != nil {
		t.Fatalf("the serial depths failed their own check: %v", err)
	}
	full[20]++
	if err := checkFullDepth(ref, 0, full); err == nil {
		t.Fatal("a corrupted depth array passed the check")
	}
}

func TestParseCPULine(t *testing.T) {
	a := parseCPULine("cpu  100 0 50 800 10 0 5 35 7 0")
	b := parseCPULine("cpu  200 0 60 900 10 0 5 45 9 0")
	if !a.ok || a.total != 1000 || a.steal != 35 {
		t.Fatalf("parsed %+v", a)
	}
	if got := a.stealShareUntil(b); math.Abs(got-10.0/220) > 1e-12 {
		t.Fatalf("steal share %v, want 10/220", got)
	}
	if parseCPULine("intr 1 2 3").ok {
		t.Fatal("parsed a non-cpu line")
	}
}

func TestPerLayerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range perLayerNames {
		if seen[n] {
			t.Fatalf("per-layer metric %q listed twice", n)
		}
		seen[n] = true
		if perLayerUnits[n] == "" {
			t.Fatalf("per-layer metric %q has no unit", n)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which tells a runner
// which metrics to expect, in step with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	type metricDef struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json names a workload the benchmark lacks: %v", err)
		}
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark prints %d", len(spec.PerLayer), len(perLayerNames))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerNames[i] || m.Unit != perLayerUnits[m.Name] {
			t.Fatalf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] here",
				i, m.Name, m.Unit, perLayerNames[i], perLayerUnits[perLayerNames[i]])
		}
	}
	want := map[string]string{"setup_s": "s", "goodput_qps": "1/s", "p50_ms": "ms", "p99_ms": "ms", "live_heap_mb": "MiB"}
	if len(spec.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(spec.EndToEnd), len(want))
	}
	for _, m := range spec.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Fatalf("end-to-end metric %s [%s] is not one the benchmark prints", m.Name, m.Unit)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload's whole pipeline (set-up,
// warm-up, timed window, checks, traced layers and replays) on a small
// grid, so the concurrent load code also runs under the race detector.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	small := func(seed uint64) (*graph.Graph, error) { return gen.Grid2D(24, 24, 2, seed) }
	for _, tc := range []struct {
		name string
		run  func(r *runner) error
	}{
		{"point-open", func(r *runner) error { return serveWorkload{graph: small, drive: drivePointOpen}.run(r) }},
		{"batch64", func(r *runner) error { return serveWorkload{graph: small, drive: driveBatch64}.run(r) }},
		{"oracle-http", func(r *runner) error {
			return serveWorkload{graph: small, index: true, http: true, cacheFill: 8, drive: driveOracle}.run(r)
		}},
		{"cluster-r2", func(r *runner) error { return runCluster(r, small) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := findWorkload(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				r := &runner{w: w, seed: 5, window: 500 * time.Millisecond, traced: traced,
					dir: t.TempDir(), nproc: runtime.NumCPU()}
				if traced {
					r.tr = newTracer()
				}
				if err := tc.run(r); err != nil {
					t.Fatal(err)
				}
				res := r.finish()
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d, correct %v: %v",
						traced, res.Attempted, res.Failed, res.Correct, r.failures)
				}
				want := 5
				if traced {
					want = len(perLayerNames)
				}
				if len(res.Metrics.list) != want {
					t.Fatalf("traced=%v: %d metrics, want %d", traced, len(res.Metrics.list), want)
				}
			}
		})
	}
}

func TestSlowStretchMovesEndToEndMetrics(t *testing.T) {
	// 200 queries over two seconds, answered after 5 ms, except 20
	// consecutive ones in the middle, answered after 40 ms: a slowdown
	// confined to a tenth of the window must show in p99 and goodput.
	start := time.Unix(1000, 0)
	r := &runner{w: workload{name: "t", limit: 10 * time.Millisecond}, window: 2 * time.Second, start: start}
	for i := 0; i < 200; i++ {
		due := start.Add(time.Duration(i) * 10 * time.Millisecond)
		lat := 5 * time.Millisecond
		if i >= 90 && i < 110 {
			lat = 40 * time.Millisecond
		}
		r.outs = append(r.outs, outcome{due: due, start: due, end: due.Add(lat)})
	}
	m := r.finish().Metrics
	get := func(name string) float64 {
		x, ok := m.get(name)
		if !ok {
			t.Fatalf("no metric %s", name)
		}
		return x.Value
	}
	if got := get("p99_ms"); got != 40 {
		t.Fatalf("p99 %v ms, want 40", got)
	}
	if got := get("p50_ms"); got != 5 {
		t.Fatalf("p50 %v ms, want 5", got)
	}
	// 180 good answers; the last arrives at 1.99 s + 5 ms.
	if got, want := get("goodput_qps"), 180/1.995; math.Abs(got-want) > 1e-9 {
		t.Fatalf("goodput %v, want %v", got, want)
	}
}

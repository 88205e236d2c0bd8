// Command benchmark runs one of the repository's benchmark workloads
// and prints its metrics. Build and run it through run.sh from the
// repository root:
//
//	bash benchmark/run.sh --workload batch64 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run instead. The lines before it, prefixed with
// '#', repeat every metric with its sample count and the run's noise
// diagnostics. README.md describes the workloads and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// workload is one named traffic mix.
type workload struct {
	name  string
	limit time.Duration // per-query latency limit for goodput
	run   func(r *runner) error
}

var workloads = []workload{
	{"point-open", 50 * time.Millisecond, runPointOpen},
	{"batch64", 500 * time.Millisecond, runBatch64},
	{"oracle-http", 100 * time.Millisecond, runOracleHTTP},
	{"cluster-r2", 200 * time.Millisecond, runClusterR2},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same graph and queries")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds, trace int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	// Load is sized for the host: never more Go threads running Go code
	// than CPUs.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), nproc))

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &runner{
		w:      w,
		seed:   seed,
		window: time.Duration(seconds) * time.Second,
		traced: trace == 1,
		dir:    dir,
		nproc:  nproc,
	}
	if r.traced {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res := r.finish()
	if r.traced {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, r.tr.snapshot()); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		res.Notes = append(res.Notes, "spans written to "+path)
	}
	return res.write(os.Stdout)
}

// outcome is one timed query as the client saw it.
type outcome struct {
	due, start, end time.Time // scheduled send, actual send, answer
	err             error
	wrong           bool // failed the output check
	traced          bool
}

func (o outcome) latency() time.Duration { return o.end.Sub(o.due) }

// runner carries one run's configuration and what it measured.
type runner struct {
	w      workload
	seed   uint64
	window time.Duration
	traced bool
	tr     *tracer // nil unless traced
	dir    string  // scratch directory, removed at exit
	nproc  int

	mu       sync.Mutex // guards failures and samples
	samples  map[string][]float64
	setups   []time.Duration
	outs     []outcome
	start    time.Time // when the timed window began
	heapMB   float64
	steal    float64 // CPU-steal share over the timed window
	failures []error
	layers   metricSet
}

// repeatSetup runs a workload's set-up setupReps times and keeps the
// last environment, so setup_s is a median rather than one noisy
// sample. build returns the new environment's teardown.
func (r *runner) repeatSetup(build func(rep int) (func(), error)) (func(), error) {
	var teardown func()
	for rep := 0; rep < setupReps; rep++ {
		if teardown != nil {
			teardown()
		}
		start := time.Now()
		td, err := build(rep)
		r.setups = append(r.setups, time.Since(start))
		if err != nil {
			if td != nil {
				td()
			}
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		teardown = td
	}
	return teardown, nil
}

const setupReps = 5

// fail records a failed operation of the timed window.
func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = append(r.failures, err)
}

// sample records one value of a layer quantity from a traced query.
func (r *runner) sample(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.samples == nil {
		r.samples = make(map[string][]float64)
	}
	r.samples[name] = append(r.samples[name], v)
}

func (r *runner) samplesOf(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

func (r *runner) quantileOf(name string, q float64) quantile {
	return percentile(r.samplesOf(name), q)
}

// measureWindow runs the timed window, fn, from its start time while
// the live heap is sampled every heapInterval, and reads the CPU-steal
// share over the window. fn returns once every query it sent has
// finished.
func (r *runner) measureWindow(fn func(start time.Time)) {
	stop := make(chan struct{})
	heap := make(chan []float64, 1)
	cpu0 := readCPU()
	r.start = time.Now()
	go func() { heap <- sampleLiveHeap(heapInterval, stop) }()
	fn(r.start)
	close(stop)
	r.steal = cpu0.stealShareUntil(readCPU())
	var sum float64
	live := <-heap
	for _, b := range live {
		sum += b
	}
	r.heapMB = sum / float64(len(live)) / (1 << 20)
}

// heapInterval paces the live-heap samples. The live heap is averaged
// over the window rather than read once at its end: on batch64 the
// cache's last entries pin one or two sweeps' buffers depending on the
// moment, so a single end-of-run reading jumped by 15 MiB between runs.
const heapInterval = 100 * time.Millisecond

// sampleLiveHeap reads the heap the collector last marked live, now and
// every interval, until stop is closed.
func sampleLiveHeap(interval time.Duration, stop <-chan struct{}) []float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	out := []float64{read()}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			out = append(out, read())
		case <-stop:
			return out
		}
	}
}

// finish derives the end-to-end metrics from the timed outcomes, or,
// for a traced run, returns the per-layer metrics gathered by the
// workload plus the harness ones.
func (r *runner) finish() *result {
	res := &result{Workload: r.w.name}
	res.Attempted = len(r.outs)
	res.Failed = len(r.failures)
	res.OK = res.Attempted - res.Failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for i, err := range r.failures {
		if i == 8 {
			fmt.Fprintf(os.Stderr, "benchmark: ... %d more failures\n", len(r.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "benchmark: failed:", err)
	}

	var lat, latTraced, latPlain, late []float64
	good := 0
	var last time.Time // when the window's last answer arrived
	for _, o := range r.outs {
		late = append(late, ms(o.start.Sub(o.due)))
		if o.end.After(last) {
			last = o.end
		}
		if o.err != nil || o.wrong {
			continue
		}
		lat = append(lat, ms(o.latency()))
		if o.latency() <= r.w.limit {
			good++
		}
		if o.traced {
			latTraced = append(latTraced, ms(o.latency()))
		} else {
			latPlain = append(latPlain, ms(o.latency()))
		}
	}
	// Goodput divides the good answers by the time from the window's
	// start to its last answer, so the closed-loop workloads' last
	// round, which ends after the window, is counted in full.
	goodput := 0.0
	if d := last.Sub(r.start); d > 0 {
		goodput = float64(good) / d.Seconds()
	}
	p50, p99 := percentile(lat, 0.5), percentile(lat, 0.99)

	setup := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setup[i] = d.Seconds()
	}
	lateP99 := percentile(late, 0.99)
	res.Notes = append(res.Notes,
		fmt.Sprintf("noise: gomaxprocs=%d nproc=%d cpu_steal_share=%.4f gen_late_p99_ms=%.4f (n=%d)",
			runtime.GOMAXPROCS(0), r.nproc, r.steal, lateP99.Value, lateP99.N),
		fmt.Sprintf("latency samples=%d, %d beyond p99; good answers=%d; setup repetitions=%d",
			p99.N, beyond(p99.N, 0.99), good, len(setup)))

	if !r.traced {
		m := &res.Metrics
		m.add("setup_s", median(setup), "s", len(setup))
		m.add("goodput_qps", goodput, "1/s", len(lat))
		m.addQ("p50_ms", p50, "ms")
		m.addQ("p99_ms", p99, "ms")
		m.add("live_heap_mb", r.heapMB, "MiB", 0)
		return res
	}

	spans := r.tr.snapshot()
	sum := summarize(spans)
	res.Notes = append(res.Notes, sum.notes()...)
	for _, name := range perLayerNames {
		if _, ok := r.layers.get(name); !ok {
			// The workload does not exercise this layer.
			r.layers.add(name, 0, perLayerUnits[name], 0)
		}
	}
	m := &res.Metrics
	for _, name := range perLayerNames {
		x, _ := r.layers.get(name)
		m.list = append(m.list, x)
	}
	set := func(name string, v float64, n int) {
		for i := range m.list {
			if m.list[i].Name == name {
				m.list[i].Value, m.list[i].Samples = v, n
			}
		}
	}
	set("harness.gen_late_p99_ms", lateP99.Value, lateP99.N)
	set("harness.cpu_steal_share", r.steal, 0)
	set("harness.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 0)
	set("harness.nproc", float64(r.nproc), 0)
	set("harness.tracing_overhead", ratio(median(latTraced), median(latPlain)), len(latTraced))
	set("harness.latency_samples", float64(len(lat)), 0)
	set("trace.covered_share", sum.CoveredShare, sum.Requests)
	set("trace.unattributed_share", 1-sum.CoveredShare, sum.Requests)
	return res
}

// perLayerNames lists every per-layer metric of a traced run, in print
// order; perLayerUnits gives their units. A workload that does not
// exercise a layer reports its metrics as 0.
var perLayerNames, perLayerUnits = func() ([]string, map[string]string) {
	defs := [][2]string{
		{"serve.queue_wait_p50_ms", "ms"}, {"serve.queue_wait_p99_ms", "ms"},
		{"serve.batched_ratio", "ratio"}, {"serve.sweep_width", "count"},
		{"serve.traversal_p50_ms", "ms"}, {"serve.sweep_p50_ms", "ms"},
		{"serve.rejected", "count"},
		{"serve.cache_hit_ratio", "ratio"}, {"serve.coalesced_ratio", "ratio"},
		{"serve.http_rtt_p50_ms", "ms"}, {"serve.http_handler_p50_ms", "ms"},
		{"serve.http_transport_p50_ms", "ms"}, {"serve.http_resp_bytes", "bytes"},
		{"bfs.run_p50_ms", "ms"}, {"bfs.mteps", "MTEPS"},
		{"bfs.phase1_share", "ratio"}, {"bfs.phase2_share", "ratio"}, {"bfs.rearr_share", "ratio"},
		{"bfs.bottomup_levels", "count"}, {"bfs.dup_ratio", "ratio"},
		{"bfs.bytes_per_edge_computed", "bytes"},
		{"msbfs.sweep_p50_ms", "ms"}, {"msbfs.ms_per_source", "ms"}, {"msbfs.sharing", "ratio"},
		{"index.exact_ratio", "ratio"}, {"index.query_p50_us", "us"},
		{"index.build_s", "s"}, {"index.label_mb", "MiB"},
		{"tune.calibrate_ms", "ms"}, {"tune.predicted_over_measured", "ratio"},
		{"graph.load_s", "s"}, {"graph.resident_mb", "MiB"},
		{"coord.rounds_per_query", "count"}, {"coord.round_p50_ms", "ms"},
		{"coord.rpc_p50_ms", "ms"}, {"coord.shard_expand_p50_ms", "ms"},
		{"coord.ckpt_save_p50_ms", "ms"}, {"coord.self_share", "ratio"},
		{"coord.wire_bytes_per_round", "bytes"}, {"coord.decode_us", "us"},
		{"coord.retries", "count"}, {"coord.epoch_restarts", "count"},
		{"harness.gen_late_p99_ms", "ms"}, {"harness.cpu_steal_share", "ratio"},
		{"harness.tracing_overhead", "ratio"}, {"harness.gomaxprocs", "count"},
		{"harness.nproc", "count"}, {"harness.latency_samples", "count"},
		{"trace.covered_share", "ratio"}, {"trace.unattributed_share", "ratio"},
	}
	names := make([]string, len(defs))
	units := make(map[string]string, len(defs))
	for i, d := range defs {
		names[i], units[d[0]] = d[0], d[1]
	}
	return names, units
}()

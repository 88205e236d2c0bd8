package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/serve"
)

const (
	graphName = "g"
	// queryTimeout bounds every query, so a stalled system turns into
	// counted failures instead of a hung run.
	queryTimeout = 2 * time.Second
	// warmWindow is the untimed steady load run between set-up and the
	// timed window.
	warmWindow = time.Second
	// reqHeader carries a traced request's id to the benchmark's own
	// HTTP middleware.
	reqHeader = "X-Benchmark-Req"
)

// warmSeed derives the seed of the untimed warm-up load, so warm-up
// queries differ from the timed ones.
func warmSeed(seed uint64) uint64 { return seed ^ 0x9e3779b97f4a7c15 }

// rmatGraph is the R-MAT graph of the point-open, batch64 and
// cluster-r2 workloads: Graph500 parameters, scale 16, edge factor 16,
// directed as the repository's own generators and tools make it.
func rmatGraph(seed uint64) (*graph.Graph, error) {
	return gen.RMAT(gen.Graph500Params(16, 16), graphSeed(seed))
}

// gridGraph is oracle-http's road-like grid: 128x128 with 2 long-range
// shortcuts per 1000 vertices. A BFS on it takes about a millisecond on
// two cores, so the workload can run enough requests for a steady p99.
func gridGraph(seed uint64) (*graph.Graph, error) {
	return gen.Grid2D(128, 128, 2, graphSeed(seed))
}

// servedQuery is one request of a serve workload: one target, asked
// either with path_to or distance_only.
type servedQuery struct {
	source, target uint32
	distanceOnly   bool
}

func (q servedQuery) request() serve.Request {
	req := serve.Request{
		Graph: graphName, Source: q.source, Targets: []uint32{q.target},
		DistanceOnly: q.distanceOnly, TimeoutMS: queryTimeout.Milliseconds(),
	}
	if !q.distanceOnly {
		t := q.target
		req.PathTo = &t
	}
	return req
}

// answerOf extracts the checkable part of a response.
func answerOf(q servedQuery, resp *serve.Response) (*answer, error) {
	if resp.Source != q.source || len(resp.Targets) != 1 || resp.Targets[0].Vertex != q.target {
		return nil, fmt.Errorf("source %d target %d: response is for another query", q.source, q.target)
	}
	a := &answer{Source: q.source, Target: q.target, Depth: resp.Targets[0].Depth, WantPath: !q.distanceOnly}
	if a.WantPath {
		if resp.PathFound == nil {
			return nil, fmt.Errorf("source %d target %d: path_to answered without path_found", q.source, q.target)
		}
		a.PathFound, a.Path = *resp.PathFound, resp.Path
	}
	return a, nil
}

// serveEnv is one set-up serving stack: the service and, for HTTP
// workloads, a loopback listener and a keep-alive client.
type serveEnv struct {
	svc     *serve.Service
	calibMS float64 // the tuner's calibration time at load
	indexS  float64 // index build time, start to ready

	url     string
	client  *http.Client
	srv     *http.Server
	served  chan error
	handler *handlerTimer
}

// setupServe builds a service and loads path with auto-tuning on,
// optionally builds the default index and starts the HTTP listener,
// then warms engine pools, transposes, the batched sweep and (for
// cacheSources) the cache, so one-off costs land in set-up.
func setupServe(r *runner, path string, withIndex, withHTTP bool, warmSources, cacheSources []uint32) (*serveEnv, func(), error) {
	e := &serveEnv{svc: serve.New(serve.Config{AutoTune: true})}
	teardown := func() {
		if e.srv != nil {
			e.srv.Close()
			<-e.served
			e.client.CloseIdleConnections()
		}
		// Unload before shutting down: unloading releases the graph's
		// cached transpose, which Shutdown alone leaves pinned, so set-up
		// repetitions do not pile up in live_heap_mb.
		if err := e.svc.UnloadGraph(graphName); err != nil && !errors.Is(err, serve.ErrUnknownGraph) {
			fmt.Fprintf(os.Stderr, "benchmark: unloading the graph: %v\n", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.svc.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: service shutdown: %v\n", err)
		}
	}
	if _, err := e.svc.LoadGraph(graphName, path); err != nil {
		return nil, teardown, err
	}
	if p := e.svc.TuneProfile(graphName); p != nil {
		e.calibMS = p.CalibrationMS
	}
	if withIndex {
		start := time.Now()
		if err := buildIndex(e.svc); err != nil {
			return nil, teardown, err
		}
		e.indexS = time.Since(start).Seconds()
	}
	if withHTTP {
		if err := e.listen(r.nproc); err != nil {
			return nil, teardown, err
		}
	}
	// Fill the engine pool (two concurrent singles) and the batched
	// sweep's buffers (a full 64-source round).
	ctx := context.Background()
	if err := concurrently(warmSources[:2], func(s uint32) error {
		_, err := e.svc.Query(ctx, servedQuery{source: s, target: s}.request())
		return err
	}); err != nil {
		return nil, teardown, fmt.Errorf("warming engines: %w", err)
	}
	if err := concurrently(warmSources[2:], func(s uint32) error {
		_, err := e.svc.Query(ctx, servedQuery{source: s, target: s}.request())
		return err
	}); err != nil {
		return nil, teardown, fmt.Errorf("warming the batched sweep: %w", err)
	}
	for _, s := range cacheSources {
		q := servedQuery{source: s, target: s, distanceOnly: true}
		if withHTTP {
			if _, err := e.postQuery(ctx, q, 0); err != nil {
				return nil, teardown, fmt.Errorf("warming the cache: %w", err)
			}
		} else if _, err := e.svc.Query(ctx, q.request()); err != nil {
			return nil, teardown, fmt.Errorf("warming the cache: %w", err)
		}
	}
	return e, teardown, nil
}

// buildIndex starts the default index build (64 degree landmarks) and
// waits until it is ready.
func buildIndex(svc *serve.Service) error {
	if _, err := svc.BuildIndex(graphName, serve.IndexOptions{}); err != nil {
		return err
	}
	for {
		st, err := svc.IndexStatus(graphName)
		if err != nil {
			return err
		}
		switch st.State {
		case serve.IndexReady:
			return nil
		case serve.IndexFailed:
			return fmt.Errorf("index build failed: %s", st.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

// concurrently runs fn on every item at once and returns the first error.
func concurrently(items []uint32, fn func(uint32) error) error {
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it uint32) {
			defer wg.Done()
			errs[i] = fn(it)
		}(i, it)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// listen serves serve.NewHandler, wrapped in the handler timer, on a
// loopback port, with a client limited to nproc keep-alive connections.
func (e *serveEnv) listen(nproc int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.handler = &handlerTimer{next: serve.NewHandler(e.svc), seen: make(map[string][2]time.Time)}
	e.srv = &http.Server{Handler: e.handler}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.url = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nproc,
		MaxConnsPerHost:     nproc,
		DisableCompression:  true,
	}}
	return nil
}

// handlerTimer is the benchmark's middleware around the serve handler:
// it records when the handler ran for requests carrying reqHeader.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	seen map[string][2]time.Time
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(reqHeader)
	if id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.mu.Lock()
	h.seen[id] = [2]time.Time{start, end}
	h.mu.Unlock()
}

// take returns and forgets the handler interval of request id.
func (h *handlerTimer) take(id string) ([2]time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	iv, ok := h.seen[id]
	delete(h.seen, id)
	return iv, ok
}

// httpReply is one /query round trip as the client saw it.
type httpReply struct {
	resp   *serve.Response
	body   []byte
	readAt time.Time // when the body was read, before decoding it
}

// postQuery sends q over HTTP and decodes the reply. id > 0 tags the
// request for the handler timer.
func (e *serveEnv) postQuery(ctx context.Context, q servedQuery, id int64) (httpReply, error) {
	var rep httpReply
	body, err := json.Marshal(q.request())
	if err != nil {
		return rep, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/query", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	if id > 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return rep, err
	}
	rep.body, err = io.ReadAll(resp.Body)
	rep.readAt = time.Now()
	resp.Body.Close()
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(rep.body))
	}
	rep.resp = new(serve.Response)
	return rep, json.Unmarshal(rep.body, rep.resp)
}

// serveLoad runs one serve workload's queries and keeps what the
// checks and the layer metrics need.
type serveLoad struct {
	r    *runner
	e    *serveEnv
	http bool
	warm bool // untimed warm-up: a failure is a set-up error

	warmErr error

	mu      sync.Mutex
	outs    []outcome
	answers []*answer
	queries []servedQuery
	traced  []answered
}

func newServeLoad(r *runner, e *serveEnv, overHTTP, warm bool) *serveLoad {
	return &serveLoad{r: r, e: e, http: overHTTP, warm: warm}
}

// slots reserves outcome slots for qs, in order, and returns the first.
func (l *serveLoad) slots(qs []servedQuery) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := len(l.outs)
	l.outs = append(l.outs, make([]outcome, len(qs))...)
	l.answers = append(l.answers, make([]*answer, len(qs))...)
	l.queries = append(l.queries, qs...)
	return base
}

// do runs query q, due at due, and records its outcome in slot i.
// Traced queries record spans and layer samples.
func (l *serveLoad) do(i int, q servedQuery, due time.Time, traced bool) {
	traced = traced && l.r.tr != nil && !l.warm
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	var (
		rep  httpReply
		err  error
		root int64
	)
	if traced {
		root = l.r.tr.newID()
	}
	start := time.Now()
	if l.http {
		rep, err = l.e.postQuery(ctx, q, root)
	} else {
		rep.resp, err = l.e.svc.Query(ctx, q.request())
	}
	end := time.Now()
	o := outcome{due: due, start: start, end: end, traced: traced}
	var a *answer
	if err == nil {
		a, err = answerOf(q, rep.resp)
	}
	o.err = err
	if err != nil {
		l.fail(fmt.Errorf("query %d (source %d): %w", i, q.source, err))
	}
	if traced && err == nil {
		tr := l.r.tr
		tr.set(root, root, 0, "query", due, end)
		tr.add(root, root, "harness.dispatch", due, start)
		if l.http {
			tr.add(root, root, "harness.decode", rep.readAt, end)
			l.traceHTTP(root, start, rep)
		} else {
			l.traceInProcess(root, start, end, rep.resp)
		}
	}
	l.mu.Lock()
	l.outs[i], l.answers[i] = o, a
	l.mu.Unlock()
}

// fail records a failed query: a run failure in the timed window, a
// set-up error during warm-up.
func (l *serveLoad) fail(err error) {
	if !l.warm {
		l.r.fail(err)
		return
	}
	l.mu.Lock()
	if l.warmErr == nil {
		l.warmErr = err
	}
	l.mu.Unlock()
}

// answered is a traced, uncached response waiting for its layer
// spans: a batched answer's sweep time is only known once the window's
// mean sweep width is.
type answered struct {
	req, parent int64
	lo, end     time.Time // the interval the layer ran in: the Query call or the handler
	elapsed     time.Duration
	index       bool // answered by the index join
	batched     bool // answered by a batched sweep
	http        bool
}

// newAnswered keeps what layerSpans needs of resp.
func newAnswered(req, parent int64, lo, end time.Time, resp *serve.Response, overHTTP bool) answered {
	return answered{
		req: req, parent: parent, lo: lo, end: end,
		elapsed: time.Duration(resp.ElapsedUS) * time.Microsecond,
		index:   resp.Index, batched: resp.Batched, http: overHTTP,
	}
}

// traceInProcess records a Service.Query call; a cached answer is all
// cache, the others are split into queue wait and the answering layer
// once the window ends (see layerSpans).
func (l *serveLoad) traceInProcess(req int64, start, end time.Time, resp *serve.Response) {
	tr := l.r.tr
	q := tr.add(req, req, "serve.query", start, end)
	if resp.Cached {
		tr.add(req, q, "serve.cache", start, end)
		return
	}
	l.keep(newAnswered(req, q, start, end, resp, false))
}

// traceHTTP splits an HTTP round trip into transport and handler time
// (from the middleware); the handler is split into the answering layer
// and the rest (JSON, routing and queue wait) once the window ends.
func (l *serveLoad) traceHTTP(req int64, start time.Time, rep httpReply) {
	tr := l.r.tr
	rtt := rep.readAt.Sub(start)
	h := tr.add(req, req, "serve.http", start, rep.readAt)
	l.r.sample("serve.http_rtt", ms(rtt))
	l.r.sample("serve.http_resp_bytes", float64(len(rep.body)))
	iv, ok := l.e.handler.take(strconv.FormatInt(req, 10))
	if !ok {
		return
	}
	hs := tr.add(req, h, "serve.handler", iv[0], iv[1])
	l.r.sample("serve.http_handler", ms(iv[1].Sub(iv[0])))
	l.r.sample("serve.http_transport", ms(rtt-iv[1].Sub(iv[0])))
	if rep.resp.Cached {
		tr.add(req, hs, "serve.cache", iv[0], iv[1])
		return
	}
	l.keep(newAnswered(req, hs, iv[0], iv[1], rep.resp, true))
}

func (l *serveLoad) keep(a answered) {
	l.mu.Lock()
	l.traced = append(l.traced, a)
	l.mu.Unlock()
}

// layerSpans records the answering layer of each kept response, ending
// where the response ended, and the queue wait before it. An index or
// unbatched answer's layer time is its ElapsedUS. A batched answer's
// ElapsedUS is its sweep's time divided by the sweep's width, so its
// sweep took ElapsedUS × width, with width the window's mean
// (batched queries per sweep); it is capped at the interval. Queue
// wait is the rest of the interval: of the Query call in process, of
// the handler over HTTP, where it also holds JSON and routing.
func (l *serveLoad) layerSpans(width float64) {
	tr := l.r.tr
	for _, a := range l.traced {
		d := a.elapsed
		name := "serve.traversal"
		switch {
		case a.index:
			name = "serve.index"
		case a.batched:
			name = "serve.sweep"
			d = time.Duration(float64(d) * max(width, 1))
		}
		d = min(d, a.end.Sub(a.lo))
		tr.add(a.req, a.parent, name, a.end.Add(-d), a.end)
		if a.index {
			continue
		}
		l.r.sample(name, ms(d))
		if !a.http {
			tr.add(a.req, a.parent, "serve.queue", a.lo, a.end.Add(-d))
		}
		l.r.sample("serve.queue_wait", ms(a.end.Sub(a.lo)-d))
	}
}

// openLoop sends query i at start plus its scheduled offset from one
// generator goroutine; each query runs on its own goroutine, so a slow answer
// never delays later sends. It returns once every query has finished;
// the schedule's length bounds the goroutines.
func openLoop(start time.Time, sched []time.Duration, do func(i int, due time.Time)) {
	var wg sync.WaitGroup
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			do(i, due)
		}(i, due)
	}
	wg.Wait()
}

// finishServe checks the window's answers, takes the stats deltas and,
// for a traced run, the serve-layer metrics.
func (l *serveLoad) finish(g *graph.Graph, before, after serve.StatsSnapshot) {
	r := l.r
	bad := checkAnswers(newReference(g), r.seed, l.answers)
	for i, err := range bad {
		l.outs[i].wrong = true
		r.fail(fmt.Errorf("query %d: %w", i, err))
	}
	r.outs = l.outs
	if !r.traced {
		return
	}
	m := &r.layers
	d := func(f func(serve.StatsSnapshot) int64) float64 { return float64(f(after) - f(before)) }
	batched := d(func(s serve.StatsSnapshot) int64 { return s.BatchedQueries })
	runs := d(func(s serve.StatsSnapshot) int64 { return s.EngineRuns })
	sweeps := d(func(s serve.StatsSnapshot) int64 { return s.Sweeps })
	reqs := d(func(s serve.StatsSnapshot) int64 { return s.Requests })
	l.layerSpans(ratio(batched, sweeps))
	m.add("serve.batched_ratio", ratio(batched, batched+runs), "ratio", int(batched+runs))
	m.add("serve.sweep_width", ratio(batched, sweeps), "count", int(sweeps))
	m.add("serve.rejected", d(func(s serve.StatsSnapshot) int64 { return s.Rejected + s.Shed + s.Expired }), "count", 0)
	m.add("serve.cache_hit_ratio", ratio(d(func(s serve.StatsSnapshot) int64 { return s.CacheHits }), reqs), "ratio", int(reqs))
	m.add("serve.coalesced_ratio", ratio(d(func(s serve.StatsSnapshot) int64 { return s.Coalesced }), reqs), "ratio", int(reqs))
	m.addQ("serve.queue_wait_p50_ms", r.quantileOf("serve.queue_wait", 0.5), "ms")
	m.addQ("serve.queue_wait_p99_ms", r.quantileOf("serve.queue_wait", 0.99), "ms")
	m.addQ("serve.traversal_p50_ms", r.quantileOf("serve.traversal", 0.5), "ms")
	m.addQ("serve.sweep_p50_ms", r.quantileOf("serve.sweep", 0.5), "ms")
	if l.http {
		m.addQ("serve.http_rtt_p50_ms", r.quantileOf("serve.http_rtt", 0.5), "ms")
		m.addQ("serve.http_handler_p50_ms", r.quantileOf("serve.http_handler", 0.5), "ms")
		m.addQ("serve.http_transport_p50_ms", r.quantileOf("serve.http_transport", 0.5), "ms")
		sizes := r.samplesOf("serve.http_resp_bytes")
		var sum float64
		for _, s := range sizes {
			sum += s
		}
		m.add("serve.http_resp_bytes", ratio(sum, float64(len(sizes))), "bytes", len(sizes))
	}
	hits := d(func(s serve.StatsSnapshot) int64 { return s.IndexHits })
	falls := d(func(s serve.StatsSnapshot) int64 { return s.IndexFallbacks })
	if hits+falls > 0 {
		m.add("index.exact_ratio", ratio(hits, hits+falls), "ratio", int(hits+falls))
	}
	for _, ts := range l.e.svc.TuneStatuses() {
		if ts.Graph == graphName && ts.Profile != nil {
			m.add("tune.predicted_over_measured", ratio(ts.Profile.PredictedMTEPS, ts.MeasuredMTEPS), "ratio", 0)
		}
	}
}

// sources lists the sources of the window's queries in send order.
func (l *serveLoad) sources() []uint32 {
	out := make([]uint32, len(l.queries))
	for i, q := range l.queries {
		out[i] = q.source
	}
	return out
}

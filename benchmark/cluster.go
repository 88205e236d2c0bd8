package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"fastbfs/cluster/coord"
	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/tune"
)

const (
	clusterGroups   = 2
	clusterReplicas = 2
	// roundsSample is how many of the first queries coord.rounds_per_query
	// averages, so the count repeats exactly for a fixed seed.
	roundsSample = 128
	// checkPrefix is how many leading queries the full-depth sample is
	// drawn from; a run always completes them.
	checkPrefix = 64
	// rpcHeader carries a traced RPC's span id to the shard middleware.
	rpcHeader = "X-Benchmark-Rpc"
	// payloadKeep bounds the expand payloads kept for the decode replay.
	payloadKeep = 64
	ckptReps    = 20
	decodeReps  = 20
)

// clusterEnv is one set-up cluster: 2 partitions x 2 replicas, each
// replica a coord shard behind its own loopback server, and a
// coordinator that audits the replicas. The shards keep no checkpoint
// directory: with one, every round's fsync put the host disk's latency
// tail into p99_ms, which then moved by half its median between runs.
// The checkpoint's cost is measured on its own (clusterReplays).
type clusterEnv struct {
	servers []*httptest.Server
	client  *http.Client
	coord   *coord.Coordinator
	n       int
}

func (c *clusterEnv) close() {
	for _, s := range c.servers {
		s.Close()
	}
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

// setupCluster loads the graph as a shard process would, builds the
// shards and their servers, opens the coordinator and warms every
// connection with a few traversals.
func setupCluster(r *runner, path string, rt *timingTransport, mw *shardTimer, warm []uint32) (*clusterEnv, error) {
	c := &clusterEnv{}
	g, err := graph.Load(path)
	if err != nil {
		return c, err
	}
	c.n = g.NumVertices()
	var urls []string
	for grp := 0; grp < clusterGroups; grp++ {
		for rr := 0; rr < clusterReplicas; rr++ {
			sh, err := coord.NewReplicaShard(g, grp, rr, clusterGroups, "", nil)
			if err != nil {
				return c, err
			}
			var h http.Handler = sh.Handler()
			if mw != nil {
				h = mw.wrap(h)
			}
			srv := httptest.NewServer(h)
			c.servers = append(c.servers, srv)
			urls = append(urls, srv.URL)
		}
	}
	var transport http.RoundTripper = &http.Transport{
		MaxIdleConnsPerHost: r.nproc,
		MaxConnsPerHost:     r.nproc,
	}
	if rt != nil {
		rt.next = transport
		transport = rt
	}
	c.client = &http.Client{Transport: transport}
	ctx := context.Background()
	c.coord, err = coord.Open(ctx, coord.Config{
		Shards: urls, Replicas: clusterReplicas, AuditReplicas: true, Client: c.client,
	})
	if err != nil {
		return c, err
	}
	for _, s := range warm {
		if _, err := c.coord.Run(ctx, s); err != nil {
			return c, fmt.Errorf("warm-up traversal from %d: %w", s, err)
		}
	}
	return c, nil
}

func runClusterR2(r *runner) error { return runCluster(r, clusterGraph) }

// clusterGraph is cluster-r2's R-MAT graph: Graph500 parameters at scale
// 16 like the serve workloads, but edge factor 8. That halves the expand
// work of every round, so a 30-second run holds enough queries for a
// p99 with twenty samples beyond it.
func clusterGraph(seed uint64) (*graph.Graph, error) {
	return gen.RMAT(gen.Graph500Params(16, 8), graphSeed(seed))
}

// runCluster runs the cluster-r2 load over the graph mkGraph makes.
func runCluster(r *runner, mkGraph func(seed uint64) (*graph.Graph, error)) error {
	g, err := mkGraph(r.seed)
	if err != nil {
		return err
	}
	path, err := writeGraph(r, g, "graph.csr")
	if err != nil {
		return err
	}
	pool := nonIsolated(g)
	warm := uniformPicker(newRand(warmSeed(r.seed), streamQueries), pool).distinct(clusterGroups * clusterReplicas)

	var rt *timingTransport
	var mw *shardTimer
	if r.traced {
		rt = &timingTransport{tr: r.tr}
		mw = &shardTimer{seen: make(map[string][2]time.Time)}
	}
	var env *clusterEnv
	teardown, err := r.repeatSetup(func(int) (func(), error) {
		c, err := setupCluster(r, path, rt, mw, warm)
		env = c
		return c.close, err
	})
	if err != nil {
		return err
	}
	defer teardown()

	// Untimed warm-up, then the timed window, each a closed loop with
	// one caller: the coordinator runs one epoch at a time.
	if _, err := (&clusterLoad{r: r, env: env, warm: true}).drive(pool, warmSeed(r.seed), time.Now(), warmWindow); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	l := &clusterLoad{r: r, env: env, rt: rt, mw: mw}
	var kept map[int][]int32
	r.measureWindow(func(start time.Time) { kept, _ = l.drive(pool, r.seed, start, r.window) })
	ref := newReference(g)
	for i, d := range kept {
		if err := checkFullDepth(ref, l.sources[i], d); err != nil {
			r.outs[i].wrong = true
			r.fail(fmt.Errorf("query %d: %w", i, err))
		}
	}
	if !r.traced {
		return nil
	}
	l.layers()
	if err := clusterReplays(r, rt.payloads, env.n); err != nil {
		return err
	}
	var calib []float64
	var prof *tune.Profile
	for i := 0; i < loadReps; i++ {
		start := time.Now()
		prof = tune.Calibrate(g, tune.Options{Sockets: 1, MaxBatch: batchSize})
		calib = append(calib, ms(time.Since(start)))
	}
	r.layers.add("tune.calibrate_ms", median(calib), "ms", len(calib))
	if err := replayLayers(r, path, g, prof, l.sources, batchesOf(l.sources)); err != nil {
		return err
	}
	// With no serving layer here, the measured side of the model's
	// report card is the engine replay under the same profile.
	if m, ok := r.layers.get("bfs.mteps"); ok {
		r.layers.add("tune.predicted_over_measured", ratio(prof.PredictedMTEPS, m.Value), "ratio", m.Samples)
	}
	return nil
}

// clusterLoad drives the coordinator in a closed loop.
type clusterLoad struct {
	r    *runner
	env  *clusterEnv
	rt   *timingTransport
	mw   *shardTimer
	warm bool

	sources []uint32
	rounds  []int
	retries int
	restart int
}

// drive runs queries back to back from start for window. In the timed window it
// records outcomes on the runner and returns the full depth arrays of
// the sampled queries, keyed by query index.
func (l *clusterLoad) drive(pool []uint32, seed uint64, start time.Time, window time.Duration) (map[int][]int32, error) {
	pk := uniformPicker(newRand(seed, streamQueries), pool)
	prefix := make([]uint32, checkPrefix)
	for i := range prefix {
		prefix[i] = pk.next()
	}
	check := make(map[uint32]bool)
	for _, s := range sampleOf(seed, prefix, sampleSources) {
		check[s] = true
	}
	kept := make(map[int][]int32)
	due := start
	for i := 0; time.Since(start) < window; i++ {
		var src uint32
		if i < len(prefix) {
			src = prefix[i]
		} else {
			src = pk.next()
		}
		traced := l.rt != nil && i%2 == 0
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var qt *rpcTrace
		if traced {
			qt = &rpcTrace{}
			ctx = context.WithValue(ctx, rpcKey{}, qt)
		}
		start := time.Now()
		res, err := l.env.coord.Run(ctx, src)
		end := time.Now()
		cancel()
		if err == nil {
			err = plausible(res, src, l.env.n)
		}
		if l.warm {
			if err != nil {
				return nil, fmt.Errorf("source %d: %w", src, err)
			}
			due = end
			continue
		}
		o := outcome{due: due, start: start, end: end, err: err, traced: traced}
		l.r.outs = append(l.r.outs, o)
		l.sources = append(l.sources, src)
		if err != nil {
			l.r.fail(fmt.Errorf("query %d (source %d): %w", i, src, err))
		} else {
			l.rounds = append(l.rounds, res.Rounds)
			l.retries += res.Retries
			l.restart += res.EpochRestarts
			if i < len(prefix) && check[src] {
				kept[i] = res.Depth
			}
			if traced {
				l.trace(qt, due, start, end)
			}
		}
		due = end
	}
	return kept, nil
}

// plausible is the per-query check: a complete result whose depth array
// covers the graph and starts at the source.
func plausible(res *coord.Result, src uint32, n int) error {
	switch {
	case res.Incomplete:
		return fmt.Errorf("incomplete result (dead groups %v)", res.DeadShards)
	case len(res.Depth) != n:
		return fmt.Errorf("%d depths for %d vertices", len(res.Depth), n)
	case res.Depth[src] != 0:
		return fmt.Errorf("source depth %d", res.Depth[src])
	}
	return nil
}

// trace turns one traced query's RPC records into spans: the query,
// the Run call, one span per round (first send to last reply), each
// RPC, and each shard's server-side handling.
func (l *clusterLoad) trace(qt *rpcTrace, due, start, end time.Time) {
	tr := l.r.tr
	root := tr.newID()
	tr.set(root, root, 0, "query", due, end)
	tr.add(root, root, "harness.dispatch", due, start)
	run := tr.add(root, root, "coord.run", start, end)

	type key struct {
		epoch uint64
		round int64
	}
	groups := make(map[key][]rpcRec)
	var keys []key
	var spans []span
	var wire int64
	for _, rec := range qt.rpcs {
		k := key{rec.epoch, rec.round}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], rec)
		spans = append(spans, span{Start: int64(rec.start.Sub(tr.t0)), End: int64(rec.end.Sub(tr.t0))})
		if rec.round >= 0 {
			wire += int64(rec.reqBytes + rec.respBytes)
		}
	}
	rounds := 0
	for _, k := range keys {
		recs := groups[k]
		lo, hi := recs[0].start, recs[0].end
		for _, rec := range recs {
			if rec.start.Before(lo) {
				lo = rec.start
			}
			if rec.end.After(hi) {
				hi = rec.end
			}
		}
		name, rpcName, shardName := "coord.round", "coord.rpc", "coord.shard_expand"
		if k.round < 0 {
			name, rpcName, shardName = "coord.depths", "coord.depths_rpc", "coord.shard_depths"
		} else {
			rounds++
			l.r.sample("coord.round", ms(hi.Sub(lo)))
		}
		rs := tr.add(root, run, name, lo, hi)
		for _, rec := range recs {
			tr.set(rec.id, root, rs, rpcName, rec.start, rec.end)
			if k.round >= 0 {
				l.r.sample("coord.rpc", ms(rec.end.Sub(rec.start)))
			}
			if iv, ok := l.mw.take(strconv.FormatInt(rec.id, 10)); ok {
				tr.add(root, rec.id, shardName, iv[0], iv[1])
				if k.round >= 0 {
					l.r.sample("coord.shard_expand", ms(iv[1].Sub(iv[0])))
				}
			}
		}
	}
	s0, e0 := int64(start.Sub(tr.t0)), int64(end.Sub(tr.t0))
	if d := end.Sub(start); d > 0 {
		l.r.sample("coord.self", float64(d-covered(s0, e0, spans))/float64(d))
	}
	if rounds > 0 {
		l.r.sample("coord.wire_bytes_per_round", float64(wire)/float64(rounds))
	}
}

// layers reports the coordinator metrics gathered from the traced
// queries and the results.
func (l *clusterLoad) layers() {
	r := l.r
	m := &r.layers
	var rounds []float64
	for _, n := range l.rounds[:min(roundsSample, len(l.rounds))] {
		rounds = append(rounds, float64(n))
	}
	var sum float64
	for _, x := range rounds {
		sum += x
	}
	m.add("coord.rounds_per_query", ratio(sum, float64(len(rounds))), "count", len(rounds))
	m.addQ("coord.round_p50_ms", r.quantileOf("coord.round", 0.5), "ms")
	m.addQ("coord.rpc_p50_ms", r.quantileOf("coord.rpc", 0.5), "ms")
	m.addQ("coord.shard_expand_p50_ms", r.quantileOf("coord.shard_expand", 0.5), "ms")
	m.addQ("coord.self_share", r.quantileOf("coord.self", 0.5), "ratio")
	m.addQ("coord.wire_bytes_per_round", r.quantileOf("coord.wire_bytes_per_round", 0.5), "bytes")
	m.add("coord.retries", float64(l.retries), "count", 0)
	m.add("coord.epoch_restarts", float64(l.restart), "count", 0)
}

// clusterReplays times the checkpoint save and the wire decode on their
// own: SaveCheckpoint on a shard-sized checkpoint, and
// DecodeExpandResponse on payloads captured during the window.
func clusterReplays(r *runner, payloads [][]byte, n int) error {
	if len(payloads) == 0 {
		return fmt.Errorf("no expand payloads were captured")
	}
	lo, hi := coord.PartitionRange(n, clusterGroups, 0)
	dir := filepath.Join(r.dir, "ckpt-replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ck := &coord.Checkpoint{Epoch: 1, Round: 1, Lo: lo, Hi: hi, Depth: make([]int32, hi-lo), Resp: payloads[0]}
	var saves []float64
	for i := 0; i < ckptReps; i++ {
		start := time.Now()
		if err := coord.SaveCheckpoint(dir, ck); err != nil {
			return fmt.Errorf("replaying a checkpoint save: %w", err)
		}
		saves = append(saves, ms(time.Since(start)))
	}
	r.layers.add("coord.ckpt_save_p50_ms", median(saves), "ms", len(saves))
	var decodes []float64
	for _, p := range payloads {
		start := time.Now()
		for i := 0; i < decodeReps; i++ {
			if _, err := coord.DecodeExpandResponse(p); err != nil {
				return fmt.Errorf("replaying a decode: %w", err)
			}
		}
		decodes = append(decodes, us(time.Since(start))/decodeReps)
	}
	r.layers.add("coord.decode_us", median(decodes), "us", len(decodes))
	return nil
}

// rpcKey is the context key of a traced query's rpcTrace.
type rpcKey struct{}

// rpcRec is one coordinator RPC seen by the timing transport.
type rpcRec struct {
	id                  int64
	epoch               uint64
	round               int64 // -1 for a depth collection
	start, end          time.Time
	reqBytes, respBytes int
}

// rpcTrace collects the RPCs of one traced query.
type rpcTrace struct {
	mu   sync.Mutex
	rpcs []rpcRec
}

func (q *rpcTrace) add(rec rpcRec) {
	q.mu.Lock()
	q.rpcs = append(q.rpcs, rec)
	q.mu.Unlock()
}

// timingTransport is the benchmark's RoundTripper, set as the
// coordinator's Config.Client transport. For queries whose context
// carries an rpcTrace it times every expand and depth RPC (request sent
// to reply read), counts wire bytes, tags the request for the shard
// middleware and keeps a few expand payloads for the decode replay.
type timingTransport struct {
	next http.RoundTripper
	tr   *tracer

	mu       sync.Mutex
	payloads [][]byte
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	qt, _ := req.Context().Value(rpcKey{}).(*rpcTrace)
	expand := req.URL.Path == "/shard/expand"
	if qt == nil || !(expand || req.URL.Path == "/shard/depths") {
		return t.next.RoundTrip(req)
	}
	rec := rpcRec{id: t.tr.newID(), round: -1}
	out := req.Clone(req.Context())
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		rec.reqBytes = len(body)
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		if f, err := coord.DecodeFrontier(body); err == nil && expand {
			rec.epoch, rec.round = f.Epoch, int64(f.Round)
		}
	} else if e, err := strconv.ParseUint(req.URL.Query().Get("epoch"), 10, 64); err == nil {
		rec.epoch = e
	}
	out.Header.Set(rpcHeader, strconv.FormatInt(rec.id, 10))
	rec.start = time.Now()
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		rec.end = time.Now()
		qt.add(rec)
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end = time.Now()
	rec.respBytes = len(data)
	qt.add(rec)
	if err != nil {
		return nil, err
	}
	if expand && resp.StatusCode == http.StatusOK {
		t.mu.Lock()
		if len(t.payloads) < payloadKeep {
			t.payloads = append(t.payloads, data)
		}
		t.mu.Unlock()
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, nil
}

// shardTimer is the benchmark's middleware around Shard.Handler: it
// records when the shard handled each tagged RPC.
type shardTimer struct {
	mu   sync.Mutex
	seen map[string][2]time.Time
}

func (s *shardTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(rpcHeader)
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		s.mu.Lock()
		s.seen[id] = [2]time.Time{start, end}
		s.mu.Unlock()
	})
}

func (s *shardTimer) take(id string) ([2]time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	iv, ok := s.seen[id]
	delete(s.seen, id)
	return iv, ok
}

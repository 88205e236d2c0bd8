package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// request's root). Start and End are nanoseconds since the tracer
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The benchmark
// records them from its own code, around its calls into each layer.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span and returns its ID.
func (t *tracer) add(req, parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.set(id, req, parent, name, start, end)
	return id
}

// newID reserves a span ID for a parent whose end is not known yet;
// record it later with set.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// set records a span under an ID from newID.
func (t *tracer) set(id, req, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and a child sticking out of its parent counts only inside it.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi int64, spans []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(total)
}

// measured names the spans that time a layer directly, around its own
// calls or from its own response fields. The others are left out of
// coverage: serve.query, serve.http, coord.run and the coord round
// envelopes wrap measured spans, so their self time (queue wait,
// transport, the coordinator's own work) is a remainder, and
// serve.queue is a remainder by definition. The harness.* spans time
// the benchmark itself: dispatch lateness and the client's decode.
var measured = map[string]bool{
	"serve.handler": true, "serve.traversal": true, "serve.sweep": true,
	"serve.index": true, "serve.cache": true,
	"coord.rpc": true, "coord.depths_rpc": true,
	"coord.shard_expand": true, "coord.shard_depths": true,
}

func isHarness(name string) bool { return strings.HasPrefix(name, "harness.") }

// layerSummary is the traced run's attribution: per request, the share
// of its wall time covered by measured layer spans, and per layer the
// mean self time per request.
type layerSummary struct {
	Requests     int
	CoveredShare float64 // median over requests
	SelfMS       map[string]float64
}

// summarize attributes each request's wall time. A request's covered
// share is the union of its measured spans over its wall time, less
// the time its harness spans take: that time is the benchmark's, not
// the program's.
func summarize(spans []span) layerSummary {
	self := selfTimes(spans)
	sum := layerSummary{SelfMS: make(map[string]float64)}
	layers := make(map[int64][]span)
	harness := make(map[int64][]span)
	for _, s := range spans {
		switch {
		case measured[s.Name]:
			layers[s.Req] = append(layers[s.Req], s)
		case isHarness(s.Name):
			harness[s.Req] = append(harness[s.Req], s)
		}
	}
	var shares []float64
	for _, s := range spans {
		if s.Parent == 0 {
			if d := s.dur() - covered(s.Start, s.End, harness[s.Req]); d > 0 {
				shares = append(shares, float64(covered(s.Start, s.End, layers[s.Req]))/float64(d))
			}
			sum.Requests++
			continue
		}
		sum.SelfMS[s.Name] += ms(self[s.ID])
	}
	for k := range sum.SelfMS {
		sum.SelfMS[k] /= float64(max(sum.Requests, 1))
	}
	sum.CoveredShare = median(shares)
	return sum
}

// notes renders the per-layer self times, largest first.
func (l layerSummary) notes() []string {
	names := make([]string, 0, len(l.SelfMS))
	for k := range l.SelfMS {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return l.SelfMS[names[i]] > l.SelfMS[names[j]] })
	out := []string{fmt.Sprintf("traced requests=%d covered_share(median)=%.4f", l.Requests, l.CoveredShare)}
	for _, k := range names {
		out = append(out, fmt.Sprintf("self %-28s %10.4f ms/request", k, l.SelfMS[k]))
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// quantile is one order statistic of a sample together with the
// sample's size, so a p99 is never reported without saying how many
// values sit beyond it.
type quantile struct {
	Value float64
	N     int
}

// percentile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// method: the smallest value with at least q·N values at or below it. xs
// is sorted in place. An empty sample yields {0, 0}.
func percentile(xs []float64, q float64) quantile {
	if len(xs) == 0 {
		return quantile{}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return quantile{Value: xs[rank-1], N: len(xs)}
}

// beyond is how many values of a sample lie above its q-quantile rank:
// the count a p99 rests on.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median is percentile(xs, 0.5).Value without disturbing xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5).Value
}

// harmonicMean is the Graph500 aggregate for rates such as MTEPS.
func harmonicMean(xs []float64) float64 {
	var inv float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			inv += 1 / x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / inv
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one named measurement as the result line reports it.
// Samples is the number of values behind a percentile or mean (0 for a
// single measurement); it goes to the human-readable table only.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// metricSet keeps metrics in insertion order.
type metricSet struct{ list []metric }

func (m *metricSet) add(name string, v float64, unit string, samples int) {
	m.list = append(m.list, metric{name, v, unit, samples})
}

func (m *metricSet) addQ(name string, q quantile, unit string) {
	m.add(name, q.Value, unit, q.N)
}

func (m *metricSet) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// result is what one run prints: a table for people, then the JSON
// result line as the last line of standard output.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	OK        int
	Failed    int
	Metrics   metricSet
	Notes     []string
}

func (r *result) write(w io.Writer) error {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# workload=%s attempted=%d ok=%d failed=%d correct=%v\n",
		r.Workload, r.Attempted, r.OK, r.Failed, r.Correct)
	for _, m := range r.Metrics.list {
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "# %-32s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, samples)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]jm, len(r.Metrics.list))}
	for _, m := range r.Metrics.list {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = jm{v, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

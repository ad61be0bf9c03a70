package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number. A metric summarising repeated
// measurements carries their median as Value, the sample count and the
// quartiles; a single measurement has N = 1 and P25 = P75 = Value.
type metric struct {
	Name    string    `json:"name"`
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	Samples []float64 `json:"samples,omitempty"`
}

// summarize reports the median of xs with its quartiles. Failed
// operations enter as +Inf, so they count as missing any latency limit.
func summarize(name, unit string, xs []float64) metric {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metric{Name: name, Unit: unit, N: len(s), Samples: s,
		Value: percentile(s, 0.5), P25: percentile(s, 0.25), P75: percentile(s, 0.75)}
}

// median, p95 and p99 are the 50th, 95th and 99th percentiles of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }
func p95(xs []float64) float64    { return quantile(xs, 0.95) }
func p99(xs []float64) float64    { return quantile(xs, 0.99) }

// quantile is the p-quantile of unsorted xs.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// single reports one measurement.
func single(name, unit string, v float64) metric {
	return metric{Name: name, Value: v, Unit: unit, N: 1, P25: v, P75: v}
}

// percentile is the linearly interpolated p-quantile of sorted s
// (p = 0.5 is the usual median).
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ms and secs convert durations to the units metrics are reported in.
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }

// result is one workload run: the operations it attempted, the ones
// that failed (an operation fails when the product returns an error or
// an output check does not hold), and every metric it measured.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// fail counts one failed operation and keeps its description.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) add(ms ...metric) { r.Metrics = append(r.Metrics, ms...) }

// get returns the metric called name, if the run measured it.
func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

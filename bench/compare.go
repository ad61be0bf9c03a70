package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runMetrics holds one side's measurements of each workload's metrics,
// in first-seen order, one metric per run.
type runMetrics struct {
	keys     []string // "workload metric", traced ones prefixed "traced "
	runs     map[string][]metric
	untraced map[string]bool
}

// readSide reads the comma-separated -out files of one side.
func readSide(paths string) (*runMetrics, error) {
	rm := &runMetrics{runs: map[string][]metric{}, untraced: map[string]bool{}}
	for _, path := range strings.Split(paths, ",") {
		var f resultFile
		if err := readJSON(path, &f); err != nil {
			return nil, err
		}
		for _, r := range f.Results {
			for _, m := range r.Metrics {
				key := r.Workload + " " + m.Name
				if r.Traced {
					key = "traced " + key
				}
				if _, ok := rm.runs[key]; !ok {
					rm.keys = append(rm.keys, key)
				}
				rm.runs[key] = append(rm.runs[key], m)
				rm.untraced[key] = !r.Traced
			}
		}
	}
	return rm, nil
}

// pooled is one side's view of a metric. With several runs it is the
// median and quartiles of their values, so the spread is the
// run-to-run one; a single run brings its own iterations' quartiles.
func pooled(ms []metric) metric {
	if len(ms) == 1 {
		return ms[0]
	}
	var vals []float64
	for _, m := range ms {
		vals = append(vals, m.Value)
	}
	return summarize(ms[0].Name, ms[0].Unit, vals)
}

// compareFiles compares -out result files workload by workload: base
// and head are each one file or a comma-separated list of runs. It
// prints each metric's median and quartiles per side, its bound, and
// for the bounded end-to-end metrics a verdict, and fails when any is
// worse.
func compareFiles(w io.Writer, specPath, basePaths, headPaths string) error {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return err
	}
	bounds := map[string]specMetric{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m
	}
	base, err := readSide(basePaths)
	if err != nil {
		return err
	}
	head, err := readSide(headPaths)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [p25 p75]\thead median [p25 p75]\tchange\tbound\tverdict")
	worse := 0
	for _, key := range base.keys {
		if len(head.runs[key]) == 0 {
			continue
		}
		bm, hm := pooled(base.runs[key]), pooled(head.runs[key])
		bound, verdict := "-", "-"
		if sm, ok := bounds[bm.Name]; ok && base.untraced[key] {
			bound = fmt.Sprintf("%.0f%%", 100*sm.Bound)
			verdict = judge(bm, hm, sm)
			if verdict == "worse" {
				worse++
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g %.4g]\t%.4g [%.4g %.4g]\t%+.1f%%\t%s\t%s\n",
			strings.TrimSuffix(key, " "+bm.Name), bm.Name, bm.Value, bm.P25, bm.P75, hm.Value, hm.P25, hm.P75,
			100*(hm.Value-bm.Value)/bm.Value, bound, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than base by more than their bound", worse)
	}
	return nil
}

// judge gives the verdict on one metric. Where either side's spread
// (quartile distance over median) exceeds the bound the metric is
// unresolved, unless every head sample beats every base sample. Else it
// is worse when the head median loses by more than the bound, better
// when it wins by more than the base's own quartile distance, and
// unchanged otherwise.
func judge(b, h metric, sm specMetric) string {
	sign := 1.0 // positive change = better
	if sm.Better == "lower" {
		sign = -1
	}
	beats := func(x, y float64) bool { return sign*(x-y) > 0 }
	spread := max((b.P75-b.P25)/b.Value, (h.P75-h.P25)/h.Value)
	if spread > sm.Bound {
		if len(b.Samples) > 0 && len(h.Samples) > 0 {
			all := true
			for _, x := range h.Samples {
				for _, y := range b.Samples {
					all = all && beats(x, y)
				}
			}
			if all {
				return "better"
			}
		}
		return "unresolved"
	}
	change := sign * (h.Value - b.Value) / b.Value
	switch {
	case change < -sm.Bound:
		return "worse"
	case beats(h.Value, b.Value) && sign*(h.Value-b.Value) > b.P75-b.P25:
		return "better"
	}
	return "unchanged"
}

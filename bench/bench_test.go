package main

import (
	"math"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// tinySizes keep the smoke test short: about 50k events per trace, one
// seed per pool model, 2k pool items and one set-up per run.
var tinySizes = sizes{events: 50_000, poolSeeds: 1, items: 2_000, setups: 1}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks that each passes its output checks and reports
// every metric BENCHMARK.json names for that kind of run. clrt_pool
// builds two programs with the go command, so -short skips it.
func TestWorkloadsSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	sorted := func(s []string) []string {
		s = slices.Clone(s)
		slices.Sort(s)
		return s
	}
	if got := names(sp.EndToEnd); !slices.Equal(sorted(got), sorted(endToEndNames)) {
		t.Fatalf("BENCHMARK.json end_to_end = %v, the benchmark reports %v", got, endToEndNames)
	}
	if got := names(sp.PerLayer); !slices.Equal(got, perLayerNames) {
		t.Fatalf("BENCHMARK.json per_layer = %v, the benchmark reports %v", got, perLayerNames)
	}

	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			if w.name == "clrt_pool" && testing.Short() {
				t.Logf("%s skipped in -short: it runs go build", w.name)
				continue
			}
			e := &env{root: root, work: t.TempDir(), seed: 1, seconds: time.Second, size: tinySizes}
			res, err := w.run(e, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			for _, p := range res.Problems {
				t.Errorf("%s traced=%t: check failed: %s", w.name, traced, p)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%t: %d ops, %d failed", w.name, traced, res.Attempted, res.Failed)
			}
			want := endToEndNames
			if traced {
				want = perLayerNames
			}
			for _, n := range want {
				m, ok := res.get(n)
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w.name, traced, n)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%t: metric %s = %v", w.name, traced, n, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, n, m.Value)
				}
			}
		}
	}
}

// TestJudge pins the -compare verdicts on a lower-is-better metric with
// a 10% bound.
func TestJudge(t *testing.T) {
	sm := specMetric{Name: "primary_ms", Better: "lower", Bound: 0.1}
	base := summarize("primary_ms", "ms", []float64{99, 100, 100, 101, 102})
	for _, c := range []struct {
		head []float64
		want string
	}{
		{[]float64{99, 100, 101, 101, 102}, "unchanged"},
		{[]float64{80, 81, 81, 82, 83}, "better"},
		{[]float64{120, 121, 121, 122, 123}, "worse"},
		{[]float64{60, 80, 100, 120, 140}, "unresolved"},
		{[]float64{50, 60, 70, 80, 95}, "better"}, // wide, but every head run beats every base run
	} {
		if got := judge(base, summarize("primary_ms", "ms", c.head), sm); got != c.want {
			t.Errorf("head %v: verdict %s, want %s", c.head, got, c.want)
		}
	}
}

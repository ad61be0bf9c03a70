// Command bench is critlock's benchmark: one program that generates
// every input from a seed, drives the product through its public entry
// points on four workloads, checks every output, and reports end-to-end
// metrics (untraced runs) and per-layer metrics (traced runs). See
// README.md for the workloads, the metrics and how to compare commits.
//
// From the repository root:
//
//	bash bench/run.sh -seed 1 [-out result.json]
//	bash bench/run.sh --workload serve_upload --seed 2 --seconds 20 --trace 1
//	bash bench/run.sh -compare base.json head.json
//
// Every metric prints as one line, "workload metric value unit n p25
// p75". The last line of standard output is a JSON summary:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one, as BENCHMARK.json names them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The metrics BENCHMARK.json declares: every workload reports each, the
// end-to-end ones untraced and the per-layer ones traced. BENCHMARK.json
// lists the same names (bench_test.go checks that).
var (
	endToEndNames = []string{"setup_s", "primary_rel", "secondary_rel", "peak_mb"}
	perLayerNames = []string{
		"setup.gen_s", "setup.prepare_s",
		"record.events", "record.ns_per_event", "record.flush_s",
		"segment.write_mb_s", "segment.open_ms", "segment.decode_ns_per_event", "segment.loads_per_segment",
		"core.pass1_ms", "core.walk_ms", "core.pass3_ms", "core.walk_loads", "core.par2_pass13_speedup",
		"core.validate_ms", "core.index_ms", "core.inmem_walk_ms", "core.metrics_ms", "core.alloc_mb_per_run",
		"hazard.self_ms", "hazard.share",
		"trace.read_binary_ns_per_event",
		"serve.handler_ms_p50",
		"bench.trace_overhead",
	}
)

// sizes scales the workloads; fullSizes is the benchmark, the smoke
// test runs tinier ones.
type sizes struct {
	events    int // convoy_2m and mixed_2m trace length
	poolSeeds int // serve_upload traces per workload model and thread count
	items     int // clrt_pool work items
	setups    int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{events: 2_000_000, poolSeeds: 9, items: 15_000, setups: 3}

// env is what a workload run needs to know.
type env struct {
	root    string        // checkout root: the critlock module
	work    string        // scratch directory, removed after the run
	seed    int64         // every input derives from it
	seconds time.Duration // how long the measured loop runs
	size    sizes
}

// warmup iterations run and are checked but not timed; minSamples is
// the floor of timed ones when a loop's time is up early.
const (
	warmup     = 2
	minSamples = 3
)

// workload is one traffic shape. run measures it untraced (end-to-end
// metrics) or traced (per-layer metrics).
type workload struct {
	name string
	run  func(e *env, traced bool) (*result, error)
}

var allWorkloads = []workload{
	{"convoy_2m", func(e *env, traced bool) (*result, error) { return runTraceWorkload(e, convoyKind, traced) }},
	{"mixed_2m", func(e *env, traced bool) (*result, error) { return runTraceWorkload(e, mixedKind, traced) }},
	{"serve_upload", runServeUpload},
	{"clrt_pool", runClrtPool},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all, untraced then traced)")
		seed    = fs.Int64("seed", 1, "seed every input derives from")
		seconds = fs.Int("seconds", 20, "seconds each run measures")
		traced  = fs.Int("trace", 0, "with -workload: 0 measures end-to-end metrics, 1 per-layer metrics")
		out     = fs.String("out", "", "also write every result, with its samples, to this JSON file")
		compare = fs.Bool("compare", false, "compare -out files: bench -compare base.json[,...] head.json[,...]")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two arguments, base and head, each a result file or a comma-separated list of them")
		}
		return compareFiles(stdout, filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}

	type job struct {
		w      workload
		traced bool
	}
	var jobs []job
	for _, w := range allWorkloads {
		if *name == "" {
			jobs = append(jobs, job{w, false}, job{w, true})
		} else if w.name == *name {
			jobs = append(jobs, job{w, *traced == 1})
		}
	}
	if len(jobs) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	fmt.Fprintf(stdout, "# critlock bench: seed %d, %d s per run, %s/%s, %d CPUs, %s\n",
		*seed, *seconds, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	var results []*result
	for _, j := range jobs {
		e := &env{root: root, work: filepath.Join(work, j.w.name), seed: *seed,
			seconds: time.Duration(*seconds) * time.Second, size: fullSizes}
		if err := os.MkdirAll(e.work, 0o755); err != nil {
			return err
		}
		res, err := j.w.run(e, j.traced)
		if err != nil {
			return fmt.Errorf("%s: %w", j.w.name, err)
		}
		if err := os.RemoveAll(e.work); err != nil {
			return err
		}
		printResult(stdout, res)
		results = append(results, res)
	}
	if *out != "" {
		if err := writeResults(*out, *seed, *seconds, results); err != nil {
			return err
		}
	}
	correct, err := printSummary(stdout, results, *name == "")
	if err != nil {
		return err
	}
	if !correct {
		return errors.New("output checks failed")
	}
	return nil
}

// findRoot locates the critlock checkout: the working directory, or its
// parent when run from bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "bench", "go.mod")) {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the critlock checkout root (no go.mod and bench/go.mod under %s)", wd)
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

func printResult(w io.Writer, r *result) {
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", r.Workload, p)
	}
	fmt.Fprintf(w, "%s ops %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s %d %.6g %.6g\n", r.Workload, m.Name, m.Value, m.Unit, m.N, m.P25, m.P75)
	}
}

// printSummary prints the closing JSON line. A single-workload run
// reports its declared metrics by name; a run of every workload
// prefixes each with the workload ("convoy_2m.primary_ms"), traced
// ones with "traced.".
func printSummary(w io.Writer, results []*result, prefixed bool) (bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		names := endToEndNames
		if r.Traced {
			names = perLayerNames
		}
		for _, n := range names {
			m, ok := r.get(n)
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				sum.Correct = false
				fmt.Fprintf(os.Stderr, "bench: %s: metric %s not measured\n", r.Workload, n)
				continue
			}
			key := n
			if prefixed {
				key = r.Workload + "." + n
				if r.Traced {
					key = "traced." + key
				}
			}
			sum.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	if sum.Failed > 0 || sum.Attempted == 0 {
		sum.Correct = false
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return sum.Correct, nil
}

// resultFile is the -out format, which -compare reads.
type resultFile struct {
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Results []*result `json:"results"`
}

func writeResults(path string, seed int64, seconds int, results []*result) error {
	// Non-finite values (a percentile over failed requests) have no JSON
	// form; the run is already marked incorrect, so record them as -1.
	for _, r := range results {
		for i := range r.Metrics {
			m := &r.Metrics[i]
			for _, p := range []*float64{&m.Value, &m.P25, &m.P75} {
				if math.IsNaN(*p) || math.IsInf(*p, 0) {
					*p = -1
				}
			}
			for k, s := range m.Samples {
				if math.IsNaN(s) || math.IsInf(s, 0) {
					m.Samples[k] = -1
				}
			}
		}
	}
	data, err := json.MarshalIndent(resultFile{seed, seconds, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Package experiments defines one runnable reproduction per table and
// figure of the paper's evaluation (§V). Each experiment runs its
// workloads on the deterministic simulator, analyzes the traces and
// renders the same rows/series the paper reports, annotated with the
// paper's reference values where the paper states them.
//
// Absolute numbers are not expected to match (the substrate is a
// simulator, not the authors' POWER7); the reproduced artifact is the
// shape — which lock wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records measured-vs-paper for every
// experiment.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"critlock/internal/core"
	"critlock/internal/report"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// Options tunes experiment execution.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Contexts is the simulated hardware thread count (default 24,
	// the paper's machine).
	Contexts int
	// Quick shrinks sweeps (used by tests); results keep their shape.
	Quick bool
	// Parallelism bounds the worker count for sweeps inside one
	// experiment (fig9/fig12 thread scans and the like). 0 or 1 runs
	// serially; results are identical either way.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Contexts == 0 {
		o.Contexts = 24
	}
	if o.Parallelism == 0 {
		o.Parallelism = 1
	}
	return o
}

// Result is a rendered experiment.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	// Notes carry measured-vs-paper commentary and free-form output
	// (e.g. the Gantt charts).
	Notes []string
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper cites the artifact being reproduced.
	Paper string
	Run   func(Options) (*Result, error)
}

var all []Experiment

// paperOrder fixes the presentation order of experiments regardless of
// file-init order.
var paperOrder = []string{
	"table1", "table2", "fig1", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "tsp",
	"ablation-fairness", "ablation-clipping",
	"extension-phases", "extension-oversub", "extension-sensitivity", "extension-online", "extension-slack", "extension-extract",
	"extension-channels", "extension-hazards",
}

func register(e Experiment) { all = append(all, e) }

// All lists experiments in paper order; experiments not in paperOrder
// (if any are added later) come last, alphabetically.
func All() []Experiment {
	rank := func(id string) int {
		for i, p := range paperOrder {
			if p == id {
				return i
			}
		}
		return len(paperOrder)
	}
	out := append([]Experiment(nil), all...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := rank(out[i].ID), rank(out[j].ID)
		if ri != rj {
			return ri < rj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// byID is the lazily built ID → experiment lookup map. Registration
// happens in package init functions, so building on first use (always
// after init) sees the complete registry.
var (
	byIDOnce sync.Once
	byIDMap  map[string]Experiment
)

// ByID finds an experiment by ID in O(1). Unknown IDs get a "did you
// mean" suggestion when a registered ID is close (edit distance), or
// the full sorted ID list otherwise.
func ByID(id string) (Experiment, error) {
	byIDOnce.Do(func() {
		byIDMap = make(map[string]Experiment, len(all))
		for _, e := range all {
			byIDMap[e.ID] = e
		}
	})
	if e, ok := byIDMap[id]; ok {
		return e, nil
	}
	if s := closestID(id); s != "" {
		return Experiment{}, fmt.Errorf("experiments: unknown id %q, did you mean %q? (use -list for all)", id, s)
	}
	ids := make([]string, 0, len(all))
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// closestID returns the registered ID nearest to id by edit distance,
// or "" when nothing is plausibly close. Distance ties go to the
// candidate sharing the longest prefix with the typo (then the
// lexicographically smaller one, for determinism).
func closestID(id string) string {
	best, bestDist, bestPfx := "", len(id)/2+2, -1
	for _, e := range all {
		d := editDistance(id, e.ID)
		if d > bestDist {
			continue
		}
		pfx := commonPrefixLen(id, e.ID)
		if d < bestDist || pfx > bestPfx || (pfx == bestPfx && best != "" && e.ID < best) {
			best, bestDist, bestPfx = e.ID, d, pfx
		}
	}
	return best
}

func commonPrefixLen(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// runWorkload executes one workload on a fresh simulator and analyzes
// the trace.
func runWorkload(name string, p workloads.Params, o Options) (*core.Analysis, trace.Time, error) {
	an, _, elapsed, err := runTraced(name, p, o)
	return an, elapsed, err
}

// runTraced is runWorkload that also returns the trace as the segment
// source the event-replaying sections (timelines, slack, the
// predictor) read.
func runTraced(name string, p workloads.Params, o Options) (*core.Analysis, core.SegmentSource, trace.Time, error) {
	spec, err := workloads.Get(name)
	if err != nil {
		return nil, nil, 0, err
	}
	if p.Seed == 0 {
		p.Seed = o.Seed
	}
	s := sim.New(sim.Config{Contexts: o.Contexts, Seed: p.Seed})
	tr, elapsed, err := workloads.Run(s, spec, p)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("experiments: running %s: %w", name, err)
	}
	an, err := core.AnalyzeDefault(tr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("experiments: analyzing %s: %w", name, err)
	}
	return an, core.TraceSegments(tr), elapsed, nil
}

// runBuilt runs an explicitly-built workload (e.g. a shrunken micro
// variant) and returns analysis plus elapsed virtual time.
func runBuilt(build workloads.BuildFunc, p workloads.Params, o Options, meta string) (*core.Analysis, trace.Time, error) {
	if p.Seed == 0 {
		p.Seed = o.Seed
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	s := sim.New(sim.Config{Contexts: o.Contexts, Seed: p.Seed})
	s.SetMeta("workload", meta)
	tr, elapsed, err := s.Run(build(s, p))
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: running %s: %w", meta, err)
	}
	an, err := core.AnalyzeDefault(tr)
	if err != nil {
		return nil, 0, err
	}
	return an, elapsed, nil
}

func notef(r *Result, format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

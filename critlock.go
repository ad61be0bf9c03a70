// Package critlock is critical lock analysis for multithreaded
// programs: it reconstructs an execution's critical path from a
// synchronization-event trace and quantifies each lock's true impact
// on completion time, reproducing "Critical Lock Analysis: Diagnosing
// Critical Section Bottlenecks in Multithreaded Applications"
// (Chen & Stenström, SC 2012).
//
// The package is a facade over the implementation packages:
//
//   - tracing: a Collector gathers lock/barrier/condvar/thread events;
//     two runtimes produce them — NewSimulator (deterministic virtual
//     time) and NewLiveRuntime (real goroutines, wall clock);
//   - analysis: Analyze(src, opts...) walks the critical path
//     backwards and returns per-lock TYPE 1 (CP Time %, invocations
//     and contention probability on the critical path) and TYPE 2
//     (wait time, hold time, average contention) statistics; the
//     source picks the pipeline — TraceSource runs in memory,
//     SegmentsSource and SegmentDirSource stream in bounded memory;
//   - serving: NewServer wraps the analysis in an HTTP ingest/report
//     service with self-instrumentation (see cmd/clasrv);
//   - workloads: RunWorkload executes the modelled applications from
//     the paper's case study (micro, radiosity, waternsq, volrend,
//     raytrace, tsp, uts, ldap);
//   - reporting: LockTable, ThreadTable, Timeline and Summary render
//     results in the paper's table layouts.
//
// Quick start:
//
//	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8})
//	mu := sim.NewMutex("shared")
//	tr, _, err := sim.Run(func(p critlock.Proc) {
//		w := p.Go("worker", func(q critlock.Proc) {
//			q.Lock(mu); q.Compute(1000); q.Unlock(mu)
//		})
//		p.Lock(mu); p.Compute(5000); p.Unlock(mu)
//		p.Join(w)
//	})
//	an, err := critlock.Analyze(critlock.TraceSource(tr))
//	fmt.Println(critlock.LockTable(an, 0))
package critlock

import (
	"io"

	"critlock/internal/core"
	"critlock/internal/harness"
	"critlock/internal/hazard"
	"critlock/internal/livetrace"
	"critlock/internal/report"
	"critlock/internal/sim"
	"critlock/internal/synth"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// Core data types (aliases into the implementation packages, so
// values flow freely between the facade and the subsystems).
type (
	// Trace is a recorded execution.
	Trace = trace.Trace
	// Event is one synchronization event.
	Event = trace.Event
	// Time is a timestamp/duration in nanoseconds.
	Time = trace.Time
	// ThreadID identifies a thread within a trace.
	ThreadID = trace.ThreadID

	// Analysis is the result of critical lock analysis.
	Analysis = core.Analysis
	// LockStats carries the TYPE 1 + TYPE 2 metrics of one lock.
	LockStats = core.LockStats
	// ChanStats carries the per-channel handoff and wait metrics.
	ChanStats = core.ChanStats
	// ThreadStats summarizes one thread.
	ThreadStats = core.ThreadStats
	// CriticalPath describes the walked path.
	CriticalPath = core.CriticalPath
	// AnalyzeOptions tunes Analyze.
	AnalyzeOptions = core.Options

	// Runtime creates sync objects and runs a root thread.
	Runtime = harness.Runtime
	// Proc is the per-thread execution context.
	Proc = harness.Proc
	// Mutex, Barrier, Cond, Chan and Thread are backend object handles.
	Mutex   = harness.Mutex
	Barrier = harness.Barrier
	Cond    = harness.Cond
	Chan    = harness.Chan
	Thread  = harness.Thread
	// SelectCase is one arm of Proc.Select.
	SelectCase = harness.SelectCase

	// SimConfig parameterizes the deterministic simulator.
	SimConfig = sim.Config
	// LiveConfig parameterizes the real-goroutine runtime.
	LiveConfig = livetrace.Config

	// WorkloadParams parameterizes the modelled applications.
	WorkloadParams = workloads.Params
	// Table is a renderable text/CSV table.
	Table = report.Table
)

// NewSimulator returns the deterministic discrete-event runtime: the
// same program, config and seed always produce the same trace.
func NewSimulator(cfg SimConfig) *sim.Sim { return sim.New(cfg) }

// NewLiveRuntime returns the real-execution runtime: goroutines,
// sync.Mutex-based primitives and monotonic timestamps.
func NewLiveRuntime(cfg LiveConfig) *livetrace.Runtime { return livetrace.New(cfg) }

// Workloads lists the modelled applications available to RunWorkload.
func Workloads() []string { return workloads.Names() }

// RunWorkload executes one of the paper's modelled applications on rt
// and returns its trace and (virtual or wall) completion time.
func RunWorkload(rt Runtime, name string, p WorkloadParams) (*Trace, Time, error) {
	spec, err := workloads.Get(name)
	if err != nil {
		return nil, 0, err
	}
	return workloads.Run(rt, spec, p)
}

// SynthConfig is a declarative JSON workload description (see
// internal/synth for the schema).
type SynthConfig = synth.Config

// LoadSynth parses and validates a declarative workload description.
func LoadSynth(r io.Reader) (*SynthConfig, error) { return synth.Load(r) }

// RunSynth executes a declarative workload on rt.
func RunSynth(rt Runtime, cfg *SynthConfig, p WorkloadParams) (*Trace, Time, error) {
	return workloads.Run(rt, cfg.Spec(), p)
}

// WriteTrace encodes a trace in the compact binary format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.WriteBinary(w, tr) }

// ReadTrace decodes a binary trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadBinary(r) }

// WriteTraceJSON encodes a trace as JSON (for interoperability).
func WriteTraceJSON(w io.Writer, tr *Trace) error { return trace.WriteJSON(w, tr) }

// ReadTraceJSON decodes a JSON trace.
func ReadTraceJSON(r io.Reader) (*Trace, error) { return trace.ReadJSON(r) }

// ValidateTrace checks a trace's structural well-formedness.
func ValidateTrace(tr *Trace) error { return trace.Validate(tr) }

// LockTable renders the per-lock TYPE 1 / TYPE 2 statistics in the
// paper's layout; topN ≤ 0 lists every lock.
func LockTable(an *Analysis, topN int) *Table { return report.LockReport(an, topN) }

// ChanTable renders per-channel handoff statistics, hottest channel
// (critical-path wait, then total blocked time) first.
func ChanTable(an *Analysis, topN int) *Table { return report.ChanReport(an, topN) }

// ThreadTable renders per-thread statistics.
func ThreadTable(an *Analysis) *Table { return report.ThreadReport(an) }

// Timeline renders an ASCII Gantt chart of the execution with the
// critical path marked (the paper's Fig. 1 view), replaying src — the
// source the analysis ran over (TraceSegments(tr) for a trace).
func Timeline(an *Analysis, src SegmentReader, width int) (string, error) {
	return report.Gantt(an, src, width)
}

// WindowTable renders lock criticality over n time windows — which
// lock dominates the critical path in each phase of the run.
func WindowTable(an *Analysis, n int) *Table { return report.WindowReport(an, n) }

// CompositionTable renders the critical path's breakdown into
// critical-section time, plain compute and unattributed waits.
func CompositionTable(an *Analysis) *Table { return report.CompositionReport(an) }

// LockOrder is the lock acquisition-order graph of a trace with
// potential deadlock cycles.
type LockOrder = hazard.LockOrder

// LockOrderOf builds the acquisition-order graph (A→B when a thread
// acquired B while holding A) of src and detects inversion cycles.
func LockOrderOf(src SegmentReader) (*LockOrder, error) { return hazard.LockOrderOf(src) }

// LockOrderTable renders the graph's edges.
func LockOrderTable(lo *LockOrder) *Table { return report.LockOrderReport(lo) }

// Predictor estimates lock criticality online (forward event stream,
// O(1) per event) — see core.Predictor for the heuristic.
type Predictor = core.Predictor

// PredictedLock is one lock's online criticality score.
type PredictedLock = core.PredictedLock

// NewPredictor returns an empty online criticality predictor.
func NewPredictor() *Predictor { return core.NewPredictor() }

// SlackAnalysis ranks locks by distance from the critical path; see
// Analysis.Slack.
type SlackAnalysis = core.SlackAnalysis

// LockSlack is one lock's slack entry.
type LockSlack = core.LockSlack

// PhaseSpan is one stretch of the run dominated by a single lock.
type PhaseSpan = core.PhaseSpan

// PhaseTable renders the run segmented by dominant critical lock.
func PhaseTable(an *Analysis, resolution int) *Table { return report.PhaseReport(an, resolution) }

// ExtractModel builds a declarative synth model from an analyzed
// trace (locks, hold sizes, invocation rates, compute between).
func ExtractModel(an *Analysis) (*SynthConfig, error) { return synth.FromAnalysis(an) }

// SlackTable renders per-lock slack (0 = on the critical path; small
// positive = the next bottleneck once the current one is optimized).
func SlackTable(sa *SlackAnalysis, topN int) *Table { return report.SlackReport(sa, topN) }

// Summary writes the whole-run header (critical path length,
// coverage, totals).
func Summary(w io.Writer, an *Analysis) { report.Summary(w, an) }

// ReportOptions selects sections of FullReport.
type ReportOptions = report.FullOptions

// FullReport renders a complete markdown report of an analysis — a
// self-contained artifact for CI runs or issue threads. src is the
// source the analysis ran over.
func FullReport(an *Analysis, src SegmentReader, opts ReportOptions) (string, error) {
	return report.Full(an, src, opts)
}

// Narrate renders the critical path's cross-thread dependency chain as
// readable text (maxHops 0 = all).
func Narrate(an *Analysis, maxHops int) string { return report.Narrate(an, maxHops) }

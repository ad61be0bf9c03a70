package core

import (
	"errors"
	"fmt"
	"time"

	"critlock/internal/obs"
	"critlock/internal/trace"
)

// ErrNeedsRawEvents marks an operation that replays the raw event
// stream (Gantt timelines, lock-order graphs, the online predictor)
// applied to the analysis of a segmented trace, which keeps only the
// registration skeleton. Re-run the operation on a full in-memory trace.
var ErrNeedsRawEvents = errors.New("needs raw events (streamed analysis keeps only the trace skeleton)")

// HasEvents reports whether the analysis retained the raw event
// stream. Analyses of segmented traces hold only the skeleton, so
// event-replay consumers (timeline renderers, lock-order graphs) must
// check this — or propagate ErrNeedsRawEvents.
func (a *Analysis) HasEvents() bool {
	return a.Trace != nil && len(a.Trace.Events) > 0
}

// Config is the analysis configuration: the Options every analysis
// takes plus the pipeline's tuning knobs. The zero value means
// unclipped holds; start from DefaultConfig for the recommended
// defaults.
type Config struct {
	Options
	// CacheSegments is the backward walk's window: how many decoded
	// segments stay resident at once (0 = default, minimum 1).
	CacheSegments int
	// TmpDir hosts the waker-annotation spill file ("" = os.TempDir).
	TmpDir string
	// Composition retains per-thread hold intervals so
	// Analysis.Composition works; it costs O(invocations) memory, so it
	// is off by default for segmented traces. TraceSource always
	// retains them.
	Composition bool
	// ParallelSegments splits passes 1 and 3 into up to this many
	// contiguous segment ranges scanned on their own goroutines (0 or
	// 1 = one range, the plain forward scan). The head range resolves
	// everything inline and the rest merge deterministically behind it,
	// so results are bit-identical at any setting.
	ParallelSegments int
	// NoMmap forces buffered reads of segment files instead of
	// memory-mapping them. Consulted by sources that open segment
	// directories (the facade's SegmentDirSource, the server), not by
	// the passes themselves.
	NoMmap bool
	// AnnotationBudget caps the resident waker-annotation shards
	// (9 bytes per event); a run over budget spills them to a TmpDir
	// temp file instead. 0 = DefaultAnnotationBudget, negative =
	// always spill.
	AnnotationBudget int64
}

// DefaultConfig returns the recommended configuration: clipped hold
// accounting.
func DefaultConfig() Config { return Config{Options: DefaultOptions()} }

// Source is where AnalyzeSource reads a trace from: an in-memory event
// array, an open segmented-trace reader, or any other provider. The two
// built-in constructors are TraceSource and StreamSource; callers with
// custom acquisition (open a directory lazily, download first)
// implement Run and delegate to one of them.
type Source interface {
	// Run executes the analysis over this source.
	Run(cfg Config) (*Analysis, error)
}

// memSegmentEvents is the segment size TraceSource views an in-memory
// trace in. Small segments keep the walk window and each pass's decoded
// columns small; larger ones raised peak memory without saving time.
const memSegmentEvents = 4096

// traceSource analyzes an in-memory trace.
type traceSource struct{ tr *trace.Trace }

// TraceSource adapts an in-memory trace: Analyze validates it, then runs
// the segment passes over its events viewed as fixed-size in-memory
// segments, with Composition on. Analysis.Trace is tr itself, so
// event-replay operations (timelines, lock-order graphs, slack) work.
func TraceSource(tr *trace.Trace) Source { return traceSource{tr} }

func (s traceSource) Run(cfg Config) (*Analysis, error) {
	if s.tr == nil || len(s.tr.Events) == 0 {
		return nil, trace.ErrEmptyTrace
	}
	h := newObsHook(cfg.Observer, len(s.tr.Events))
	start := h.phaseStart("validate")
	if err := trace.Validate(s.tr); err != nil {
		return nil, fmt.Errorf("core: invalid trace: %w", err)
	}
	h.phaseDone("validate", start, int64(len(s.tr.Events)))
	cfg.Composition = true
	return AnalyzeStream(memSegments{s.tr}, cfg)
}

// memSegments presents an in-memory trace as consecutive
// memSegmentEvents-event segments. Loads copy straight out of the
// event slice — nothing is encoded — and are safe from concurrent
// goroutines. The trace serves as its own skeleton: the passes read
// only its threads, objects and metadata.
type memSegments struct{ tr *trace.Trace }

func (m memSegments) Skeleton() *trace.Trace { return m.tr }
func (m memSegments) NumEvents() int         { return len(m.tr.Events) }

func (m memSegments) NumSegments() int {
	return (len(m.tr.Events) + memSegmentEvents - 1) / memSegmentEvents
}

func (m memSegments) SegmentBounds(i int) (first, count int) {
	first = i * memSegmentEvents
	return first, min(memSegmentEvents, len(m.tr.Events)-first)
}

func (m memSegments) events(i int) []trace.Event {
	first, count := m.SegmentBounds(i)
	return m.tr.Events[first : first+count]
}

func (m memSegments) LoadSegment(i int, buf []trace.Event) ([]trace.Event, error) {
	return append(buf[:0], m.events(i)...), nil
}

func (m memSegments) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	evs := m.events(i)
	cols.Reset(len(evs))
	cols.AppendEvents(evs)
	return 0, nil
}

// streamSource analyzes a segmented trace in bounded memory.
type streamSource struct{ src SegmentSource }

// StreamSource adapts a segmented trace (an open segment.Reader, a
// spiller's result, or any SegmentSource): Analyze runs the passes
// straight over its segments.
func StreamSource(src SegmentSource) Source { return streamSource{src} }

func (s streamSource) Run(cfg Config) (*Analysis, error) {
	return AnalyzeStream(s.src, cfg)
}

// AnalyzeSource is the unified entry point: every consumer — the
// facade, the CLIs, the serving layer — dispatches through it, so
// options and instrumentation behave identically everywhere.
func AnalyzeSource(src Source, cfg Config) (*Analysis, error) {
	return src.Run(cfg)
}

// obsHook adapts an obs.Observer for the analysis hot path: nil-safe
// (a nil hook is free), and it owns the run's cumulative Progress
// snapshot. Events count per phase (each pass re-reads the trace);
// Segments and BytesSpilled accumulate over the whole run.
type obsHook struct {
	o obs.Observer
	p obs.Progress
}

// newObsHook returns nil — the free hook — when o is nil.
func newObsHook(o obs.Observer, totalEvents int) *obsHook {
	if o == nil {
		return nil
	}
	return &obsHook{o: o, p: obs.Progress{TotalEvents: int64(totalEvents)}}
}

// phaseStart begins a phase, resetting the per-phase event cursor.
func (h *obsHook) phaseStart(name string) time.Time {
	if h == nil {
		return time.Time{}
	}
	h.p.Phase = name
	h.p.Events = 0
	h.o.PhaseStart(name)
	return time.Now()
}

// phaseDone completes a phase: a final snapshot with the phase's full
// event count (pass events < 0 to keep whatever the phase's scanned
// calls accumulated — the walk touches only the segments the path
// crosses), then the duration callback. The snapshot lands first so
// per-phase throughput derived at PhaseDone (bytes since PhaseStart
// over the duration) sees the phase's complete byte count.
func (h *obsHook) phaseDone(name string, start time.Time, events int64) {
	if h == nil {
		return
	}
	if events >= 0 {
		h.p.Events = events
	}
	h.o.OnProgress(h.p)
	h.o.PhaseDone(name, time.Since(start))
}

// scanned records one segment load of n events (bytes encoded body
// bytes, 0 if unknown) and emits a snapshot. Must be called from one
// goroutine at a time: a pass's head range reports each segment as it
// goes, and the later ranges accumulate locally and report through
// scannedBulk after their barrier.
func (h *obsHook) scanned(n int, bytes int64) {
	if h == nil {
		return
	}
	h.p.Segments++
	h.p.Events += int64(n)
	h.p.BytesRead += bytes
	h.o.OnProgress(h.p)
}

// scannedBulk folds the later ranges' totals into the snapshot in one
// step — they must not touch the hook concurrently.
func (h *obsHook) scannedBulk(segments int, events int64, bytes int64) {
	if h == nil {
		return
	}
	h.p.Segments += int64(segments)
	h.p.Events += events
	h.p.BytesRead += bytes
	h.o.OnProgress(h.p)
}

// spilled records n bytes written to spill storage (snapshot emitted
// with the next scanned/phaseDone, not per write).
func (h *obsHook) spilled(n int64) {
	if h != nil {
		h.p.BytesSpilled += n
	}
}

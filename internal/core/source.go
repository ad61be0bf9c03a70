package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"critlock/internal/obs"
	"critlock/internal/trace"
)

// Config is the analysis configuration: the Options every analysis
// takes plus how a segment directory is read. The zero value means
// unclipped holds; start from DefaultConfig for the recommended
// defaults.
type Config struct {
	Options
	// NoMmap forces buffered reads of segment files instead of
	// memory-mapping them. Only sources that open a segment directory
	// themselves (the facade's SegmentDirSource) consult it; the passes
	// and already-open sources ignore it.
	NoMmap bool
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

// memSegmentEvents is the segment size TraceSegments views an
// in-memory trace in. Small segments keep the walk window and each
// pass's decoded columns small; larger ones raised peak memory without
// saving time.
const memSegmentEvents = 4096

// validateBesideEvents is the smallest trace TraceSource validates on
// a goroutine of its own while the passes run, given 2 or more cores:
// 128K events, where the decoder starts splitting too. Below it the
// saving is under a few milliseconds, and a server analyzing several
// uploads at once has no idle core to lend: validating uploads of 4K
// to 100K events beside the passes made a 2-core server's median
// latency about 5% worse under a closed loop of 2 connections.
const validateBesideEvents = 1 << 17

// traceSource analyzes an in-memory trace. Traces of besideFrom events
// or more validate beside the passes (validateBesideEvents; tests
// lower it).
type traceSource struct {
	tr         *trace.Trace
	besideFrom int
}

// TraceSource adapts an in-memory trace: Analyze validates it and runs
// the segment passes over TraceSegments(tr). A trace that fails
// validation is an error whatever the passes made of it. Like every
// source's, the result's Analysis.Trace is a skeleton; sections that
// replay events take TraceSegments(tr).
func TraceSource(tr *trace.Trace) Source { return traceSource{tr, validateBesideEvents} }

// Run validates first on one core or a small trace. Otherwise the
// validator runs on its own goroutine beside the passes, which load
// through memSegments' checks since nothing has vetted their events
// yet; Run joins it on every return path, and its verdict wins. The
// passes read ahead and split pass 3 as they do over any source
// (AnalyzeStream): a validator that finishes before pass 3 leaves its
// core to the pass's ranges, and the read-ahead moves the copies out
// of the event slice off the pass goroutine.
// Either way the observer sees the validate phase once, from this
// goroutine, with the validator's own duration: before pass1 when it
// ran first, after pass3 when it ran beside the passes.
func (s traceSource) Run(cfg Config) (*Analysis, error) {
	if s.tr == nil || len(s.tr.Events) == 0 {
		return nil, trace.ErrEmptyTrace
	}
	n := len(s.tr.Events)
	h := newObsHook(cfg.Observer, n)
	if n < s.besideFrom || runtime.GOMAXPROCS(0) < 2 {
		start := h.phaseStart("validate")
		if err := trace.Validate(s.tr); err != nil {
			return nil, fmt.Errorf("core: invalid trace: %w", err)
		}
		h.phaseDone("validate", time.Since(start), int64(n))
		return analyzeStream(newMemSegments(s.tr, false), cfg, h)
	}

	var verr error
	var took time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		verr = trace.Validate(s.tr)
		took = time.Since(start)
	}()
	an, err := analyzeStream(newMemSegments(s.tr, true), cfg, h)
	<-done
	h.phaseStart("validate")
	if verr != nil {
		return nil, fmt.Errorf("core: invalid trace: %w", verr)
	}
	h.phaseDone("validate", took, int64(n))
	return an, err
}

// memSegments presents an in-memory trace as consecutive
// memSegmentEvents-event segments. Loads copy straight out of the
// event slice — nothing is encoded — and are safe from concurrent
// goroutines. Unless the trace has passed trace.Validate, the first
// load of each segment checks what a segment file's first load checks
// and the validator also requires: events in strict (T, Seq) order,
// valid kinds and threads in range. The passes may run before
// validation has finished (TraceSource), or without it (AnalyzeStream
// over TraceSegments).
type memSegments struct {
	tr   *trace.Trace
	skel *trace.Trace
	// verified marks the segments checked so far; nil when the trace
	// has been validated.
	verified []atomic.Bool
}

// TraceSegments views an in-memory trace as a SegmentSource of
// fixed-size segments, so the sections that replay events read a trace
// file the way they read a segment directory. The events are not
// copied; the skeleton shares tr's threads, objects and metadata.
func TraceSegments(tr *trace.Trace) SegmentSource { return newMemSegments(tr, true) }

// newMemSegments views tr as memSegments, checking each segment on its
// first load if check is set.
func newMemSegments(tr *trace.Trace, check bool) memSegments {
	m := memSegments{tr: tr, skel: &trace.Trace{Objects: tr.Objects, Threads: tr.Threads, Meta: tr.Meta}}
	if check {
		m.verified = make([]atomic.Bool, m.NumSegments())
	}
	return m
}

func (m memSegments) Skeleton() *trace.Trace { return m.skel }
func (m memSegments) NumEvents() int         { return len(m.tr.Events) }

func (m memSegments) NumSegments() int {
	return (len(m.tr.Events) + memSegmentEvents - 1) / memSegmentEvents
}

func (m memSegments) SegmentBounds(i int) (first, count int) {
	first = i * memSegmentEvents
	return first, min(memSegmentEvents, len(m.tr.Events)-first)
}

func (m memSegments) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	first, count := m.SegmentBounds(i)
	cols.Reset(count)
	cols.AppendEvents(m.tr.Events[first : first+count])
	if m.verified != nil && !m.verified[i].Load() {
		if err := m.verify(first, cols); err != nil {
			return 0, err
		}
		m.verified[i].Store(true)
	}
	return 0, nil
}

// verify checks the events of the segment starting at event first,
// loaded into cols, and the order across the seam with the event
// before them.
func (m memSegments) verify(first int, cols *trace.Columns) error {
	var prevT trace.Time
	var prevSeq uint64
	if first > 0 {
		prevT, prevSeq = m.tr.Events[first-1].T, m.tr.Events[first-1].Seq
	}
	nThreads := uint32(len(m.tr.Threads))
	T, Seq, Kind, Thread := cols.T, cols.Seq[:len(cols.T)], cols.Kind[:len(cols.T)], cols.Thread[:len(cols.T)]
	for j, t := range T {
		seq, th := Seq[j], Thread[j]
		if (t < prevT || (t == prevT && seq <= prevSeq)) && first+j > 0 {
			return fmt.Errorf("core: event %d out of order", first+j)
		}
		if !trace.EventKind(Kind[j]).Valid() {
			return fmt.Errorf("core: event %d: invalid kind %d", first+j, Kind[j])
		}
		if uint32(th) >= nThreads {
			return fmt.Errorf("core: event %d: thread %d out of range", first+j, th)
		}
		prevT, prevSeq = t, seq
	}
	return nil
}

// ForEachEvent calls fn with every event of src in trace order: the
// forward sweep behind the timelines and the online predictor. It
// reads each segment's columns directly, sliced to one length so the
// loop has no bounds checks, and refills one Event per event.
func ForEachEvent(src SegmentSource, fn func(e trace.Event)) error {
	return ForEachSegment(src, func(cols *trace.Columns) error {
		T := cols.T
		n := len(T)
		Seq, Th, K, O, A := cols.Seq[:n], cols.Thread[:n], cols.Kind[:n], cols.Obj[:n], cols.Arg[:n]
		var e trace.Event
		for j, t := range T {
			e.T, e.Seq, e.Thread, e.Kind, e.Obj, e.Arg = t, Seq[j], trace.ThreadID(Th[j]), trace.EventKind(K[j]), trace.ObjID(O[j]), A[j]
			fn(e)
		}
		return nil
	})
}

// ForEachSegment calls fn with every segment of src in order, each
// decoded into one reused column set, and stops at the first error of
// a load or of fn. On 2 or more cores, for a source of 128K events or
// more, the next two segments decode on helper goroutines while fn
// runs; ForEachSegment joins them before it returns.
func ForEachSegment(src SegmentSource, fn func(cols *trace.Columns) error) error {
	src, done := sweepSource(src)
	defer done()
	var cols trace.Columns
	for s := 0; s < src.NumSegments(); s++ {
		if _, err := src.LoadColumns(s, &cols); err != nil {
			return err
		}
		if err := fn(&cols); err != nil {
			return err
		}
	}
	return nil
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
// Segments and BytesRead accumulate over the whole run.
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

// phaseDone completes a phase that took d: a final snapshot with the
// phase's full event count (pass events < 0 to keep whatever the
// phase's scanned calls accumulated — the walk touches only the
// segments the path crosses), then the duration callback. The snapshot
// lands first so per-phase throughput derived at PhaseDone (bytes
// since PhaseStart over the duration) sees the phase's complete byte
// count.
func (h *obsHook) phaseDone(name string, d time.Duration, events int64) {
	if h == nil {
		return
	}
	if events >= 0 {
		h.p.Events = events
	}
	h.o.OnProgress(h.p)
	h.o.PhaseDone(name, d)
}

// scanned records one segment load of n events (bytes encoded body
// bytes, 0 if unknown) and emits a snapshot. Must be called from one
// goroutine at a time: pass 1, the walk and pass 3's head range report
// each segment as they go, and pass 3's later ranges accumulate
// locally and report through scannedBulk after their barrier.
func (h *obsHook) scanned(n int, bytes int64) {
	if h == nil {
		return
	}
	h.p.Segments++
	h.p.Events += int64(n)
	h.p.BytesRead += bytes
	h.o.OnProgress(h.p)
}

// scannedBulk folds pass 3's later ranges' totals into the snapshot in
// one step — they must not touch the hook concurrently.
func (h *obsHook) scannedBulk(segments int, events int64, bytes int64) {
	if h == nil {
		return
	}
	h.p.Segments += int64(segments)
	h.p.Events += events
	h.p.BytesRead += bytes
	h.o.OnProgress(h.p)
}

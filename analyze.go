package critlock

import (
	"critlock/internal/core"
	"critlock/internal/obs"
	"critlock/internal/segment"
	"critlock/internal/trace"
)

// Unified analysis entry point: one Analyze for every way a trace can
// arrive. Every source runs the same three passes — in-memory traces
// are validated, then viewed as fixed-size in-memory segments — and
// the options apply uniformly, so the CLIs, the serving layer and
// library callers share a single code path.
//
//	an, err := critlock.Analyze(critlock.TraceSource(tr))
//	an, err := critlock.Analyze(critlock.SegmentDirSource("segs/"),
//	        critlock.WithProgress(show))

// AnalysisSource is where Analyze reads a recorded execution from.
// Built-in constructors: TraceSource (in-memory events),
// SegmentsSource (an open segmented trace or a spiller's result) and
// SegmentDirSource (a segment directory opened at Analyze time).
type AnalysisSource = core.Source

// SegmentReader is random access to a segmented trace: the
// registration skeleton plus whole-segment loads. segment.Reader,
// spilled live recordings and TraceSegments implement it.
type SegmentReader = core.SegmentSource

// Progress is a cumulative snapshot of a running analysis (current
// phase, events processed, segments loaded, segment bytes read).
type Progress = obs.Progress

// Observer receives analysis self-instrumentation callbacks: phase
// boundaries with durations plus Progress snapshots.
type Observer = obs.Observer

// Typed error kinds, classified with errors.Is.
var (
	// ErrTruncated marks trace or segment input cut short of what its
	// format promises.
	ErrTruncated = trace.ErrTruncated
	// ErrChecksum marks segment data whose CRC does not match —
	// corruption rather than truncation.
	ErrChecksum = trace.ErrChecksum
)

// TraceSource analyzes an in-memory trace. The trace is validated, and
// a trace that fails is an error: on a large trace with 2 or more
// cores the validator runs beside the passes. As with every source,
// Analysis.Trace is a skeleton; the sections that replay events
// (Timeline, LockOrderOf, Analysis.Slack, Predictor.ObserveAll) take
// TraceSegments(tr).
func TraceSource(tr *Trace) AnalysisSource { return core.TraceSource(tr) }

// TraceSegments views an in-memory trace as a SegmentReader, the source
// the event-replaying sections read.
func TraceSegments(tr *Trace) SegmentReader { return core.TraceSegments(tr) }

// SegmentsSource analyzes an already-open segmented trace in bounded
// memory.
func SegmentsSource(src SegmentReader) AnalysisSource { return core.StreamSource(src) }

// SegmentDirSource analyzes the segmented trace directory at dir,
// opened when Analyze runs: the manifest is parsed and validated once,
// every pass shares the reader's footer index and memory-mapped (or
// buffered, under WithMmap(false)) segment images, and the reader is
// closed when the analysis returns.
func SegmentDirSource(dir string) AnalysisSource { return segmentDirSource{dir} }

type segmentDirSource struct{ dir string }

func (s segmentDirSource) Run(cfg core.Config) (*core.Analysis, error) {
	r, err := segment.OpenWith(s.dir, segment.ReadOptions{NoMmap: cfg.NoMmap})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return core.StreamSource(r).Run(cfg)
}

// Option tunes one Analyze call.
type Option func(*core.Config)

// WithOptions replaces the analysis options wholesale (clipping and
// observers). Observers already attached via WithObserver or
// WithProgress are preserved; apply WithOptions first when combining.
func WithOptions(opts AnalyzeOptions) Option {
	return func(c *core.Config) {
		attached := c.Options.Observer
		c.Options = opts
		c.Options.Observer = obs.Combine(attached, opts.Observer)
	}
}

// WithClipHold selects hold-time accounting: true (the default)
// credits on-path invocations only with hold time lying on the walked
// critical path; false credits full hold times (the coarser accounting
// kept as an ablation knob).
func WithClipHold(on bool) Option {
	return func(c *core.Config) { c.ClipHold = on }
}

// WithParallelSegments does nothing. The analysis sizes pass 3 itself:
// one range per core on a source of 128K events or more, given 2 or
// more cores, and one range otherwise.
//
// Deprecated: results never depended on it; drop the option.
func WithParallelSegments(n int) Option {
	return func(*core.Config) {}
}

// WithMmap selects how SegmentDirSource reads segment files: true (the
// default) memory-maps them so pass decoding runs over the page cache
// with zero copies; false forces buffered reads (for filesystems where
// mapping misbehaves). Sources that are already open ignore it.
func WithMmap(on bool) Option {
	return func(c *core.Config) { c.NoMmap = !on }
}

// WithObserver attaches an instrumentation observer; multiple
// observers compose. Observation never changes analysis results.
func WithObserver(o Observer) Option {
	return func(c *core.Config) { c.Options.Observer = obs.Combine(c.Options.Observer, o) }
}

// WithProgress attaches a progress callback: fn fires with a
// cumulative snapshot at every phase boundary and segment load.
func WithProgress(fn func(Progress)) Option {
	return WithObserver(obs.Funcs{Progress: fn})
}

// Analyze runs critical lock analysis on src with default options
// (clipped hold accounting), adjusted by opts. It is the package's one entry point: the former
// AnalyzeWithOptions(tr, opts) is Analyze(TraceSource(tr),
// WithOptions(opts)), and the former AnalyzeStream(src, ...) is
// Analyze(SegmentsSource(src), ...).
func Analyze(src AnalysisSource, opts ...Option) (*Analysis, error) {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return core.AnalyzeSource(src, cfg)
}

package obs

import (
	"sync"
	"time"
)

// Progress is a point-in-time snapshot of one analysis run. Counts are
// cumulative over the run, not deltas; the analyzer emits a snapshot
// at every phase boundary and after every scanned segment.
type Progress struct {
	// Phase names the pipeline stage currently executing: "pass1",
	// "walk" and "pass3" for the three analysis passes, preceded by
	// "validate" for in-memory traces.
	Phase string `json:"phase"`
	// Events is the number of events processed so far.
	Events int64 `json:"events"`
	// TotalEvents is the run's total event count (0 if unknown).
	TotalEvents int64 `json:"total_events"`
	// Segments is the number of segment loads so far (in-memory
	// traces count their fixed-size in-memory segments).
	Segments int64 `json:"segments"`
	// BytesSpilled is the number of bytes written to spill storage
	// (annotation temp file, collector run files).
	BytesSpilled int64 `json:"bytes_spilled"`
	// BytesRead is the number of encoded segment-body bytes decoded so
	// far (0 for in-memory traces and for sources that do not
	// report sizes). Per-pass throughput derives from its growth.
	BytesRead int64 `json:"bytes_read"`
}

// Observer receives the analysis pipeline's self-instrumentation
// callbacks. Implementations must be cheap: hooks fire on the analysis
// hot path (phase boundaries and per-segment, never per-event).
type Observer interface {
	// PhaseStart fires when a pipeline phase begins.
	PhaseStart(phase string)
	// PhaseDone fires when a pipeline phase completes, with its
	// duration.
	PhaseDone(phase string, d time.Duration)
	// OnProgress fires with a cumulative snapshot.
	OnProgress(p Progress)
}

// Funcs adapts bare functions into an Observer; nil fields are
// skipped. The zero value is a no-op Observer.
type Funcs struct {
	Start    func(phase string)
	Done     func(phase string, d time.Duration)
	Progress func(p Progress)
}

func (f Funcs) PhaseStart(phase string) {
	if f.Start != nil {
		f.Start(phase)
	}
}

func (f Funcs) PhaseDone(phase string, d time.Duration) {
	if f.Done != nil {
		f.Done(phase, d)
	}
}

func (f Funcs) OnProgress(p Progress) {
	if f.Progress != nil {
		f.Progress(p)
	}
}

// multi fans callbacks out to several observers in order.
type multi []Observer

func (m multi) PhaseStart(phase string) {
	for _, o := range m {
		o.PhaseStart(phase)
	}
}

func (m multi) PhaseDone(phase string, d time.Duration) {
	for _, o := range m {
		o.PhaseDone(phase, d)
	}
}

func (m multi) OnProgress(p Progress) {
	for _, o := range m {
		o.OnProgress(p)
	}
}

// Combine composes observers, tolerating nils: Combine(nil, o) == o.
// It returns nil when every input is nil.
func Combine(os ...Observer) Observer {
	var out multi
	for _, o := range os {
		switch v := o.(type) {
		case nil:
		case multi:
			out = append(out, v...)
		default:
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// Instruments folds analysis observer callbacks into a Registry:
// per-phase duration histograms and whole-pipeline throughput
// counters. One Instruments is shared by all runs; each run gets its
// own Observer from Run() (Progress snapshots are cumulative, so the
// per-run adapter converts them to counter deltas).
type Instruments struct {
	reg      *Registry
	events   *Counter
	segments *Counter
	spilled  *Counter
	read     *Counter
}

// NewInstruments binds instrumentation to reg, creating the counter
// families eagerly so /metrics shows them at zero before any run.
func NewInstruments(reg *Registry) *Instruments {
	return &Instruments{
		reg:      reg,
		events:   reg.Counter("critlock_analysis_events_total", "Trace events processed by analysis passes.", nil),
		segments: reg.Counter("critlock_analysis_segments_total", "Segment loads performed by streaming analyses.", nil),
		spilled:  reg.Counter("critlock_analysis_spilled_bytes_total", "Bytes written to analysis spill storage.", nil),
		read:     reg.Counter("critlock_analysis_read_bytes_total", "Encoded segment bytes decoded by streaming analyses.", nil),
	}
}

// phaseHistogram returns the duration histogram for one phase.
func (ins *Instruments) phaseHistogram(phase string) *Histogram {
	return ins.reg.Histogram("critlock_phase_seconds",
		"Duration of analysis pipeline phases.",
		map[string]string{"phase": phase}, nil)
}

// rateBuckets bound the per-pass decode-throughput histogram, in MB/s.
var rateBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// rateHistogram returns the decode-throughput histogram for one phase.
func (ins *Instruments) rateHistogram(phase string) *Histogram {
	return ins.reg.Histogram("critlock_pass_mbps",
		"Segment decode throughput of analysis passes, MB per second.",
		map[string]string{"phase": phase}, rateBuckets)
}

// Run returns a fresh per-run Observer feeding this Instruments.
func (ins *Instruments) Run() Observer { return &insRun{ins: ins} }

// insRun tracks one run's last cumulative Progress so shared counters
// advance by deltas, plus the bytes mark at the current phase's start
// so PhaseDone can observe the phase's decode throughput.
type insRun struct {
	ins        *Instruments
	mu         sync.Mutex
	last       Progress
	phaseBytes int64
}

func (r *insRun) PhaseStart(string) {
	r.mu.Lock()
	r.phaseBytes = r.last.BytesRead
	r.mu.Unlock()
}

func (r *insRun) PhaseDone(phase string, d time.Duration) {
	r.ins.phaseHistogram(phase).Observe(d.Seconds())
	r.mu.Lock()
	dBytes := r.last.BytesRead - r.phaseBytes
	r.phaseBytes = r.last.BytesRead
	r.mu.Unlock()
	// The analyzer emits the phase's final snapshot before PhaseDone,
	// so dBytes covers the whole phase.
	if dBytes > 0 && d > 0 {
		r.ins.rateHistogram(phase).Observe(float64(dBytes) / 1e6 / d.Seconds())
	}
}

func (r *insRun) OnProgress(p Progress) {
	r.mu.Lock()
	// The event cursor resets at phase boundaries (each pass re-reads
	// the trace), so a phase change restarts the event delta from zero;
	// Segments, BytesSpilled and BytesRead stay cumulative over the
	// whole run.
	if p.Phase != r.last.Phase {
		r.last.Events = 0
	}
	dEvents := p.Events - r.last.Events
	dSegments := p.Segments - r.last.Segments
	dSpilled := p.BytesSpilled - r.last.BytesSpilled
	dRead := p.BytesRead - r.last.BytesRead
	r.last = p
	r.mu.Unlock()
	// Only forward movement within a phase counts.
	if dEvents > 0 {
		r.ins.events.Add(dEvents)
	}
	if dSegments > 0 {
		r.ins.segments.Add(dSegments)
	}
	if dSpilled > 0 {
		r.ins.spilled.Add(dSpilled)
	}
	if dRead > 0 {
		r.ins.read.Add(dRead)
	}
}

// RunStatus is one live analysis run's externally visible state — what
// /debug/progress serves.
type RunStatus struct {
	ID      string    `json:"id"`
	Source  string    `json:"source"`
	Started time.Time `json:"started"`
	Done    bool      `json:"done"`
	Progress
}

// Tracker holds the live run table behind /debug/progress. Runs
// register on Start and disappear on Done; a bounded ring of recently
// finished runs is retained for post-hoc inspection.
type Tracker struct {
	mu     sync.Mutex
	active map[string]*TrackedRun
	recent []RunStatus // most recent last, capped
}

// recentCap bounds the finished-run history.
const recentCap = 32

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{active: map[string]*TrackedRun{}}
}

// Start registers a run and returns its Observer handle. id should be
// unique among live runs (the server uses the request's content hash).
func (t *Tracker) Start(id, source string) *TrackedRun {
	r := &TrackedRun{
		t:      t,
		status: RunStatus{ID: id, Source: source, Started: time.Now()},
	}
	t.mu.Lock()
	t.active[id] = r
	t.mu.Unlock()
	return r
}

// Snapshot lists live runs (registration order not guaranteed) then
// recently finished ones.
func (t *Tracker) Snapshot() []RunStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RunStatus, 0, len(t.active)+len(t.recent))
	for _, r := range t.active {
		r.mu.Lock()
		out = append(out, r.status)
		r.mu.Unlock()
	}
	out = append(out, t.recent...)
	return out
}

// TrackedRun is one run's handle: an Observer plus Done.
type TrackedRun struct {
	t      *Tracker
	mu     sync.Mutex
	status RunStatus
}

func (r *TrackedRun) PhaseStart(phase string) {
	r.mu.Lock()
	r.status.Phase = phase
	r.mu.Unlock()
}

func (r *TrackedRun) PhaseDone(string, time.Duration) {}

func (r *TrackedRun) OnProgress(p Progress) {
	r.mu.Lock()
	r.status.Progress = p
	r.mu.Unlock()
}

// Done unregisters the run, moving its final status to the recent
// ring.
func (r *TrackedRun) Done() {
	r.mu.Lock()
	r.status.Done = true
	final := r.status
	r.mu.Unlock()

	r.t.mu.Lock()
	delete(r.t.active, final.ID)
	r.t.recent = append(r.t.recent, final)
	if len(r.t.recent) > recentCap {
		r.t.recent = r.t.recent[len(r.t.recent)-recentCap:]
	}
	r.t.mu.Unlock()
}

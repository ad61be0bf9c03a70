package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Collector accumulates events during an execution.
//
// It mirrors the paper's instrumentation module: each thread appends
// events to a private buffer (no cross-thread synchronization on the
// hot path beyond one atomic sequence counter), and the buffers are
// merged into a single time-ordered Trace when the run completes.
//
// Thread and object registration take a mutex; they are rare compared
// to event emission.
type Collector struct {
	seq atomic.Uint64

	mu      sync.Mutex
	threads []ThreadInfo
	objects []ObjectInfo
	buffers []*ThreadBuffer
	meta    map[string]string
	spill   atomic.Pointer[spillConfig]
}

// SpillSink receives per-thread event runs when a buffer crosses the
// spill threshold. Runs arrive in the emitting thread's order, so each
// run is canonically (T, Seq) sorted; runs of different threads
// interleave arbitrarily. The events slice is only valid for the
// duration of the call. Implementations must latch their own I/O
// errors (Emit cannot surface them) and report the first one when
// their results are collected — segment.Spiller does exactly that.
type SpillSink interface {
	SpillRun(thread ThreadID, events []Event) error
}

// spillConfig pairs a sink with its threshold so Emit reads both with
// one atomic load.
type spillConfig struct {
	sink      SpillSink
	threshold int
}

// SetSpill attaches a spill sink: from now on, any per-thread buffer
// reaching thresholdEvents is flushed to the sink and cleared, so the
// collector's memory stays bounded by threads × threshold regardless
// of trace length. Attach before the run starts; call DrainSpill after
// it completes to push out the partial buffers.
func (c *Collector) SetSpill(sink SpillSink, thresholdEvents int) {
	if thresholdEvents < 1 {
		thresholdEvents = 1
	}
	c.spill.Store(&spillConfig{sink: sink, threshold: thresholdEvents})
}

// DrainSpill flushes every non-empty per-thread buffer to the spill
// sink and clears it. Call once emission has stopped; a Finish after
// DrainSpill returns the registration skeleton with no events.
func (c *Collector) DrainSpill() error {
	cfg := c.spill.Load()
	if cfg == nil {
		return nil
	}
	c.mu.Lock()
	bufs := append([]*ThreadBuffer(nil), c.buffers...)
	c.mu.Unlock()
	var first error
	for _, b := range bufs {
		b.mu.Lock()
		if len(b.events) > 0 {
			if err := cfg.sink.SpillRun(b.thread, b.events); err != nil && first == nil {
				first = err
			}
			b.events = b.events[:0]
		}
		b.mu.Unlock()
	}
	return first
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{meta: make(map[string]string)}
}

// SetMeta records a metadata key/value pair on the resulting trace.
func (c *Collector) SetMeta(key, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.meta[key] = value
}

// RegisterThread allocates a ThreadID and its event buffer. creator is
// the creating thread (NoThread for the root thread).
func (c *Collector) RegisterThread(name string, creator ThreadID) *ThreadBuffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := ThreadID(len(c.threads))
	if name == "" {
		name = fmt.Sprintf("thread-%d", id)
	}
	c.threads = append(c.threads, ThreadInfo{ID: id, Name: name, Creator: creator})
	buf := &ThreadBuffer{collector: c, thread: id}
	c.buffers = append(c.buffers, buf)
	return buf
}

// RegisterObject allocates an ObjID for a synchronization object.
func (c *Collector) RegisterObject(kind ObjKind, name string, parties int) ObjID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := ObjID(len(c.objects))
	if name == "" {
		name = fmt.Sprintf("%s-%d", kind, id)
	}
	c.objects = append(c.objects, ObjectInfo{ID: id, Kind: kind, Name: name, Parties: parties})
	return id
}

// NumThreads returns the number of registered threads.
func (c *Collector) NumThreads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.threads)
}

// Finish merges all per-thread buffers into a Trace in canonical
// (T, Seq) order via a k-way merge — the buffers are already ordered,
// so no global sort is needed. The collector remains usable; Finish
// may be called repeatedly to snapshot progress.
func (c *Collector) Finish() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, b := range c.buffers {
		total += b.len()
	}
	// Snapshot every buffer into one flat scratch slice and merge the
	// per-thread runs. (If a buffer grows between the count above and
	// its snapshot, append reallocates; earlier runs keep pointing at
	// the old backing, which is correct — they are copies either way.)
	flat := make([]Event, 0, total)
	runs := make([][]Event, 0, len(c.buffers))
	for _, b := range c.buffers {
		start := len(flat)
		flat = b.appendEvents(flat)
		runs = append(runs, flat[start:len(flat):len(flat)])
	}
	events := MergeSorted(runs)
	tr := &Trace{
		Events:  events,
		Objects: append([]ObjectInfo(nil), c.objects...),
		Threads: append([]ThreadInfo(nil), c.threads...),
		Meta:    make(map[string]string, len(c.meta)),
	}
	for k, v := range c.meta {
		tr.Meta[k] = v
	}
	return tr
}

// ThreadBuffer is the per-thread event sink. It must only be used from
// the owning thread (the backends guarantee this). Appends take the
// buffer's own mutex, which only Finish snapshots and spills contend
// for; the sequence number comes from one shared atomic.
type ThreadBuffer struct {
	collector *Collector
	thread    ThreadID

	mu     sync.Mutex // guards events against concurrent Finish snapshots
	events []Event
}

// Thread returns the owning thread's ID.
func (b *ThreadBuffer) Thread() ThreadID { return b.thread }

// Emit appends an event, stamping thread and sequence number. With a
// spill sink attached, a buffer reaching the threshold is flushed as
// one run and cleared while still under the buffer lock, so Finish
// snapshots never see half-spilled state.
func (b *ThreadBuffer) Emit(t Time, kind EventKind, obj ObjID, arg int64) {
	seq := b.collector.seq.Add(1)
	b.mu.Lock()
	b.events = append(b.events, Event{T: t, Seq: seq, Thread: b.thread, Kind: kind, Obj: obj, Arg: arg})
	if cfg := b.collector.spill.Load(); cfg != nil && len(b.events) >= cfg.threshold {
		cfg.sink.SpillRun(b.thread, b.events) // errors latch in the sink
		b.events = b.events[:0]
	}
	b.mu.Unlock()
}

func (b *ThreadBuffer) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// appendEvents appends a snapshot of the buffer to dst.
func (b *ThreadBuffer) appendEvents(dst []Event) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append(dst, b.events...)
}

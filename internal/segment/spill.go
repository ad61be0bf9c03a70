package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"critlock/internal/trace"
)

// Spiller bounds trace-generation memory: it implements
// trace.SpillSink by appending each thread's spilled runs through a
// Writer into a per-thread run directory of DefaultFrameEvents-event
// segments (a thread's events are already canonically ordered, so a
// run directory is one long sorted run). Finish reopens the runs with
// buffered reads and k-way merges them into a sorted segment
// directory. The merge holds one decoded run segment per thread, plus
// that segment's encoded image, and maps nothing: its memory is
// bounded by threads × one DefaultFrameEvents segment, whatever the
// length of the trace.
//
// Usage:
//
//	sp, _ := segment.NewSpiller(dir, opts)
//	col.SetSpill(sp, threshold)
//	... run the workload ...
//	rdr, err := sp.Finish(col)
//
// Spiller latches the first I/O error (Emit cannot propagate one) and
// Finish reports it.
type Spiller struct {
	dir  string
	opts Options

	mu   sync.Mutex
	runs map[trace.ThreadID]*Writer
	err  error
	done bool
}

// NewSpiller creates dir (if needed) and returns a Spiller writing
// run directories into it.
func NewSpiller(dir string, opts Options) (*Spiller, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Spiller{dir: dir, opts: opts.withDefaults(), runs: map[trace.ThreadID]*Writer{}}, nil
}

// SpillRun appends one thread's buffered events to its run directory.
func (s *Spiller) SpillRun(thread trace.ThreadID, events []trace.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.done {
		s.err = fmt.Errorf("segment: spill after Finish")
		return s.err
	}
	w := s.runs[thread]
	if w == nil {
		var err error
		w, err = NewWriter(filepath.Join(s.dir, fmt.Sprintf("run-t%d", thread)), Options{SegmentEvents: DefaultFrameEvents})
		if err != nil {
			s.err = err
			return err
		}
		s.runs[thread] = w
	}
	for _, e := range events {
		if err := w.Append(e); err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// Err returns the latched error, if any.
func (s *Spiller) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Finish drains the collector's remaining buffers, merges all runs
// into a sorted segment directory with the collector's registrations
// and metadata, deletes the run directories and returns a Reader over
// the result. Call once, after the run has completed.
func (s *Spiller) Finish(c *trace.Collector) (*Reader, error) {
	if err := c.DrainSpill(); err != nil {
		return nil, err
	}
	skel := c.Finish() // buffers are drained: registrations only

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, fmt.Errorf("segment: Finish called twice")
	}
	s.done = true
	runs := make([]*Reader, 0, len(s.runs))
	defer func() {
		for _, r := range runs {
			r.Close()
		}
		for _, w := range s.runs {
			w.Close()
			os.RemoveAll(w.dir)
		}
		s.runs = nil
	}()
	if s.err != nil {
		return nil, s.err
	}

	// Close the run writers with the registrations their readers
	// check thread IDs against, and reopen them.
	for _, w := range s.runs {
		w.SetSkeleton(skel.Threads, nil, nil)
		if err := w.Close(); err != nil {
			return nil, err
		}
		r, err := OpenWith(w.dir, ReadOptions{NoMmap: true})
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}

	w, err := NewWriter(s.dir, s.opts)
	if err != nil {
		return nil, err
	}
	w.SetSkeleton(skel.Threads, skel.Objects, skel.Meta)
	if err := mergeRuns(w, runs); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return Open(s.dir)
}

// runCursor is one source in the k-way merge: a run's next event, in
// the decoded columns of the run segment that holds it.
type runCursor struct {
	r    *Reader
	cols trace.Columns
	seg  int // next segment to load
	i    int // index of head in cols
	head trace.Event
}

// next moves the cursor to the run's next event, loading the next
// segment when the current one is spent. It reports false at the end
// of the run.
func (c *runCursor) next() (bool, error) {
	c.i++
	if c.i >= c.cols.Len() {
		if c.seg == c.r.NumSegments() {
			return false, nil
		}
		if _, err := c.r.LoadColumns(c.seg, &c.cols); err != nil {
			return false, err
		}
		c.seg, c.i = c.seg+1, 0
	}
	c.head = c.cols.Event(c.i)
	return true, nil
}

// mergeRuns streams the k-way merge of the sorted runs into w.
func mergeRuns(w *Writer, runs []*Reader) error {
	h := make([]*runCursor, 0, len(runs))
	for _, r := range runs {
		c := &runCursor{r: r, i: -1}
		if ok, err := c.next(); err != nil {
			return err
		} else if ok {
			h = append(h, c)
		}
	}
	// Binary min-heap keyed by head event (same shape as
	// trace.MergeSorted, but pulling from run cursors).
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownRuns(h, i)
	}
	for len(h) > 0 {
		if err := w.Append(h[0].head); err != nil {
			return err
		}
		ok, err := h[0].next()
		if err != nil {
			return err
		}
		if !ok {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDownRuns(h, 0)
	}
	return nil
}

func siftDownRuns(h []*runCursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && trace.Less(h[l].head, h[min].head) {
			min = l
		}
		if r < len(h) && trace.Less(h[r].head, h[min].head) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

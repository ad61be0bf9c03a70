package core

import (
	"runtime"

	"critlock/internal/trace"
)

// readAheadFrom is the smallest source, in events, that sequential
// segment sweeps read ahead on: the size from which TraceSource also
// validates beside the passes, so one threshold decides when work goes
// to a second core. Tests lower it.
var readAheadFrom = validateBesideEvents

// readAhead overlaps segment decoding with the work of one sequential
// reader. When a load continues a run — segment i right after i-1 or
// i+1 — it starts decoding the next segment in that direction on a
// helper goroutine, into a column set of its own, while the caller
// works on segment i. Loading that segment then swaps the decoded
// columns into the caller's set without a copy, and the caller's old
// arrays become the helper's next target. Any other load first waits
// for the decode in flight and then loads inline. A read-ahead's error
// is returned only when its segment is asked for, so a sweep fails at
// the segment, and with the text, it would have failed at without it.
//
// One decode at most runs beside the caller, and close joins it. A
// readAhead serves one goroutine; its loads must not run concurrently.
type readAhead struct {
	SegmentSource
	n int
	// last is the segment of the latest load, -1 before the first, so
	// a sweep that starts at segment 0 reads ahead from its first load.
	last int
	// next is the segment decoding on the helper, -1 when none. While
	// it is set, cols, bytes and err belong to the helper.
	next  int
	cols  *trace.Columns
	bytes int64
	err   error
	done  chan struct{}
}

// sweepSource returns src wrapped in a read-ahead when a sequential
// sweep over it can use a second core: 2 or more Ps, 2 or more
// segments, and readAheadFrom events or more. Otherwise it returns
// src. The caller runs the returned func when its sweeps are done, on
// every path; it joins the decode still in flight.
func sweepSource(src SegmentSource) (SegmentSource, func()) {
	n := src.NumSegments()
	if runtime.GOMAXPROCS(0) < 2 || n < 2 || src.NumEvents() < readAheadFrom {
		return src, func() {}
	}
	r := &readAhead{SegmentSource: src, n: n, last: -1, next: -1, cols: new(trace.Columns), done: make(chan struct{}, 1)}
	return r, func() { r.wait() }
}

func (r *readAhead) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	var bytes int64
	var err error
	if r.wait() == i {
		*cols, *r.cols = *r.cols, *cols
		bytes, err = r.bytes, r.err
	} else {
		bytes, err = r.SegmentSource.LoadColumns(i, cols)
	}
	step := i - r.last
	r.last = i
	if next := i + step; err == nil && (step == 1 || step == -1) && next >= 0 && next < r.n {
		r.next = next
		go r.fetch(next)
	}
	return bytes, err
}

// fetch decodes segment i on the helper goroutine.
func (r *readAhead) fetch(i int) {
	r.bytes, r.err = r.SegmentSource.LoadColumns(i, r.cols)
	r.done <- struct{}{}
}

// wait joins the decode in flight, if any, and returns its segment (-1
// when none was running).
func (r *readAhead) wait() int {
	s := r.next
	if s >= 0 {
		<-r.done
		r.next = -1
	}
	return s
}

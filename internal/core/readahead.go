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

// readAheadDepth is how many segment decodes run beside the caller.
// With one, a caller that works on a segment faster than a decode
// waits on that one decoder; with two, the second decode runs on the
// caller's own core while it waits. Three measured no better on two
// cores.
const readAheadDepth = 2

// readAhead overlaps segment decoding with the work of one sequential
// reader. When a load continues a run — segment i right after i-1 or
// i+1 — it keeps the next readAheadDepth segments in that direction
// decoding on helper goroutines, each into a column set of its own,
// while the caller works on segment i. Loading the nearest of them
// swaps its decoded columns into the caller's set without a copy, and
// the caller's old arrays become that decode's next target. Any other
// load first joins every decode in flight and then loads inline. A
// read-ahead's error is returned only when its segment is asked for,
// so a sweep fails at the segment, and with the text, it would have
// failed at without it.
//
// At most readAheadDepth decodes run beside the caller, and the func
// sweepSource returns joins them. A readAhead serves one goroutine; its
// loads must not run concurrently.
type readAhead struct {
	SegmentSource
	n int
	// last is the segment of the latest load, -1 before the first, so
	// a sweep that starts at segment 0 reads ahead from its first load.
	last int
	// ahead holds the decodes in flight, nearest segment first; idle
	// holds the decodes not running. A decode in ahead belongs to its
	// helper until it is joined.
	ahead, idle []*decode
}

// decode is one segment decoding on a helper goroutine.
type decode struct {
	seg   int
	cols  trace.Columns
	bytes int64
	err   error
	done  chan struct{}
}

// spareCores reports whether work on src can go to more cores than
// the caller's: 2 or more Ps, 2 or more segments, and readAheadFrom
// events or more. Sequential sweeps read ahead from there on, and the
// analysis splits pass 3 into ranges (pass3Ranges).
func spareCores(src SegmentSource) bool {
	return runtime.GOMAXPROCS(0) >= 2 && src.NumSegments() >= 2 && src.NumEvents() >= readAheadFrom
}

// sweepSource returns src wrapped in a read-ahead when a sequential
// sweep over it can use a second core (spareCores). Otherwise it
// returns src. The caller runs the returned func when its sweeps are
// done, on every path; it joins the decodes still in flight.
func sweepSource(src SegmentSource) (SegmentSource, func()) {
	if !spareCores(src) {
		return src, func() {}
	}
	r := &readAhead{SegmentSource: src, n: src.NumSegments(), last: -1}
	return r, r.wait
}

func (r *readAhead) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	var bytes int64
	var err error
	if len(r.ahead) > 0 && r.ahead[0].seg == i {
		d := r.ahead[0]
		<-d.done
		r.ahead = append(r.ahead[:0], r.ahead[1:]...)
		*cols, d.cols = d.cols, *cols
		bytes, err = d.bytes, d.err
		r.idle = append(r.idle, d)
	} else {
		r.wait()
		bytes, err = r.SegmentSource.LoadColumns(i, cols)
	}
	step := i - r.last
	r.last = i
	if err != nil || (step != 1 && step != -1) {
		return bytes, err
	}
	// ahead now holds i+step, i+2·step, … in order; extend it.
	for k := len(r.ahead) + 1; k <= readAheadDepth; k++ {
		next := i + k*step
		if next < 0 || next >= r.n {
			break
		}
		r.start(next)
	}
	return bytes, err
}

// start decodes segment i on a helper goroutine, into an idle decode's
// columns.
func (r *readAhead) start(i int) {
	var d *decode
	if k := len(r.idle) - 1; k >= 0 {
		d, r.idle = r.idle[k], r.idle[:k]
	} else {
		d = &decode{done: make(chan struct{}, 1)}
	}
	d.seg = i
	r.ahead = append(r.ahead, d)
	go func() {
		d.bytes, d.err = r.SegmentSource.LoadColumns(i, &d.cols)
		d.done <- struct{}{}
	}()
}

// wait joins every decode in flight and drops its result.
func (r *readAhead) wait() {
	for _, d := range r.ahead {
		<-d.done
		r.idle = append(r.idle, d)
	}
	r.ahead = r.ahead[:0]
}

// columnSets joins every decode in flight and hands over the column
// sets of all the read-ahead's decodes, which it no longer uses; a
// later load decodes into fresh ones.
func (r *readAhead) columnSets() []*trace.Columns {
	r.wait()
	sets := make([]*trace.Columns, len(r.idle))
	for k, d := range r.idle {
		sets[k] = &d.cols
	}
	r.idle = nil
	return sets
}

package core

import (
	"fmt"

	"critlock/internal/par"
	"critlock/internal/trace"
)

// Pass 3 pairs lock events and nothing else: every tally that needs no
// walked path is pass 1's (stream.go). It splits the segments into
// contiguous ranges, one per worker, and scans the ranges concurrently.
// Range 0, the head range, starts from the empty state a forward scan
// starts from, so it settles every lock event on the spot. Ranges 1..k
// start blind to the events before them; they pair what their own
// events decide and relay the rest. A sequential merge then takes the
// head range's final state as the global state and replays ranges 1..k
// into it in order. With one worker there is only the head range, and
// nothing is relayed or replayed. The merge is exact, not approximate,
// because everything crossing a range boundary is either
//
//   - rare enough to relay verbatim and replay in global order through
//     the same code the head range runs (obtains or releases whose
//     acquire lies in an earlier range — p3Range), or
//   - commutative (per-lock sums, maxima and bools fold in fixed range
//     order; hot intervals are normalized by mergeIntervals).
//
// The walk stays sequential: it is a pointer chase along the critical
// path with no independent subproblems.

// relayEv is an obtain or release a pass-3 range after the head could
// not pair: its acquire lies in an earlier range.
type relayEv struct {
	idx    int32
	t      trace.Time
	arg    int64
	obj    trace.ObjID
	thread trace.ThreadID
	kind   trace.EventKind
}

// p3Range is one pass-3 range's state and output. The head range's
// state is the global one: its ts is the analysis's ThreadStats, and
// the merge replays ranges 1..k into it.
type p3Range struct {
	skel     *trace.Trace
	opts     Options
	threads  []streamThread
	ts       []ThreadStats // head: an.Threads; later ranges: deltas folded at merge
	sink     *lockSink
	relay    []relayEv
	err      error
	segments int
	events   int64
	bytes    int64
}

// pass3 is the forward lock pass: it pairs each thread's lock events
// into invocations and delivers them in acquire order as their critical
// sections close, accumulating per-lock and per-thread lock metrics.
// Every folded quantity is an integer sum, maximum or bool (floats
// happen once, in finalizeMetrics) and hot intervals normalize in
// mergeIntervals — so the output is bit-identical at any worker count.
// Range k decodes into cols[k] when there is one, a fresh column set
// otherwise.
func pass3(src SegmentSource, skel *trace.Trace, p1 *pass1Result, an *Analysis, cfg Config, workers int, h *obsHook, cols []*trace.Columns) error {
	nThreads := len(skel.Threads)
	threads := initStreamThreads(an, skel, p1)
	an.hotByLock = map[trace.ObjID][]interval{}
	ranges := make([]p3Range, workers)
	for ri := range ranges {
		r := &ranges[ri]
		*r = p3Range{skel: skel, opts: cfg.Options, sink: newLockSink(nThreads, len(skel.Objects))}
		if ri == 0 {
			r.threads, r.ts = threads, an.Threads
		} else {
			r.threads, r.ts = make([]streamThread, nThreads), make([]ThreadStats, nThreads)
			for tid := range r.threads {
				r.threads[tid].clips = threads[tid].clips // read-only shared clip index
			}
		}
	}
	for len(cols) < len(ranges) {
		cols = append(cols, new(trace.Columns))
	}
	par.Chunks(src.NumSegments(), workers, func(chunk, lo, hi int) {
		r := &ranges[chunk]
		if chunk == 0 {
			r.err = r.scan(src, lo, hi, true, h, cols[0])
		} else {
			r.err = r.scan(src, lo, hi, false, nil, cols[chunk])
		}
	})
	for i := range ranges {
		if ranges[i].err != nil {
			return ranges[i].err
		}
	}

	// Merge, in range order: replay each later range's relays against
	// the global state, then fold its queue tails, thread totals and
	// sink.
	g := &ranges[0]
	segments := 0
	var events, bytes int64
	for ri := 1; ri < len(ranges); ri++ {
		r := &ranges[ri]
		for _, e := range r.relay {
			if !g.lockStep(&g.threads[e.thread], int(e.thread), e.kind, e.obj, e.idx, e.t, e.arg) {
				return orphanError(skel, e.idx, e.kind, e.obj)
			}
		}
		for tid := range r.threads {
			rst, gst := &r.threads[tid], &g.threads[tid]
			for k := rst.head; k < len(rst.pend); k++ {
				inv := rst.pend[k]
				pos := gst.push(inv)
				if inv.releaseIdx < 0 {
					// Rebuilding open in queue order reproduces the
					// same-lock overwrite the range applied.
					gst.open.set(inv.lock, pos)
				}
			}
			addThreadTotals(&an.Threads[tid], &r.ts[tid])
		}
		foldSink(g.sink, r.sink)
		segments += r.segments
		events += r.events
		bytes += r.bytes
	}

	// End of trace: invocations still open get the trace's end as their
	// release, then the rest of every queue delivers in acquire order.
	for tid := range g.threads {
		st := &g.threads[tid]
		for k := st.head; k < len(st.pend); k++ {
			inv := &st.pend[k]
			if inv.obtainIdx < 0 {
				continue // acquire without obtain (truncated); skip
			}
			if inv.releaseIdx < 0 {
				inv.relT = p1.lastT
			}
			g.deliver(tid, inv)
		}
	}

	if segments > 0 {
		h.scannedBulk(segments, events, bytes)
	}
	foldHot(ranges)
	finalizeMetrics(an, g.sink, p1.chans, src.NumEvents())
	return nil
}

// scan runs pass 3 over segments [lo, hi), stepping lock events only.
// The head range reports an obtain or release with no acquire as an
// error and each segment to h; later ranges relay the one and count
// the other. Each segment decodes into cols.
func (r *p3Range) scan(src SegmentSource, lo, hi int, head bool, h *obsHook, cols *trace.Columns) error {
	for s := lo; s < hi; s++ {
		first, _ := src.SegmentBounds(s)
		bytes, err := src.LoadColumns(s, cols)
		if err != nil {
			return err
		}
		count := cols.Len()
		threads := r.threads
		cT, cTh, cKind, cObj, cArg := cols.T, cols.Thread, cols.Kind, cols.Obj, cols.Arg
		for k := 0; k < count; k++ {
			kind := trace.EventKind(cKind[k])
			if !isLockKind(kind) {
				continue
			}
			gi, tid, obj := int32(first+k), int(cTh[k]), trace.ObjID(cObj[k])
			if r.lockStep(&threads[tid], tid, kind, obj, gi, cT[k], cArg[k]) {
				continue
			}
			if head {
				return orphanError(r.skel, gi, kind, obj)
			}
			r.relay = append(r.relay, relayEv{
				idx: gi, t: cT[k], arg: cArg[k], obj: obj, thread: trace.ThreadID(tid), kind: kind,
			})
		}
		if head {
			h.scanned(count, bytes)
		} else {
			r.segments++
			r.events += int64(count)
			r.bytes += bytes
		}
	}
	return nil
}

// isLockKind reports whether kind is a lock event, the only kind pass 3
// steps.
func isLockKind(kind trace.EventKind) bool {
	return kind == trace.EvLockAcquire || kind == trace.EvLockObtain || kind == trace.EvLockRelease
}

// lockStep applies a lock event to thread tid's (state st) queue of
// in-flight invocations; a release delivers the queue's closed prefix
// in acquire order. It reports false for an obtain or release with no
// acquire in the queue.
func (r *p3Range) lockStep(st *streamThread, tid int, kind trace.EventKind, obj trace.ObjID, idx int32, t trace.Time, arg int64) bool {
	switch kind {
	case trace.EvLockAcquire:
		st.open.set(obj, st.push(invocation{
			lock: obj, thread: trace.ThreadID(tid),
			acquireIdx: idx, obtainIdx: -1, releaseIdx: -1,
			acqT: t,
		}))
	case trace.EvLockObtain:
		pos, ok := st.open.get(obj)
		if !ok {
			return false
		}
		inv := st.at(pos)
		inv.obtainIdx, inv.obtT = idx, t
		inv.contended = arg&trace.LockArgContended != 0
		inv.shared = arg&trace.LockArgShared != 0
	case trace.EvLockRelease:
		pos, ok := st.open.get(obj)
		if !ok {
			return false
		}
		inv := st.at(pos)
		inv.releaseIdx, inv.relT = idx, t
		st.open.del(obj)
		for st.head < len(st.pend) && st.pend[st.head].releaseIdx >= 0 {
			if st.pend[st.head].obtainIdx >= 0 {
				r.deliver(tid, &st.pend[st.head])
			}
			st.head++
		}
		st.compact()
	}
	return true
}

// deliver accumulates one closed invocation into the range's sink and
// thread totals.
func (r *p3Range) deliver(tid int, inv *invocation) {
	st := &r.threads[tid]
	accumulateInvocation(r.sink, &r.ts[tid], inv, r.skel.ObjName(inv.lock), r.opts, st.clips, &st.cursor)
}

// orphanError is pass 3's error for an obtain or release with no
// matching acquire.
func orphanError(skel *trace.Trace, idx int32, kind trace.EventKind, obj trace.ObjID) error {
	if kind == trace.EvLockObtain {
		return fmt.Errorf("core: event %d: obtain of %q without acquire", idx, skel.ObjName(obj))
	}
	return fmt.Errorf("core: event %d: release of %q without hold", idx, skel.ObjName(obj))
}

// addThreadTotals folds a range's per-thread lock totals into dst.
func addThreadTotals(dst, d *ThreadStats) {
	dst.LockWait += d.LockWait
	dst.LockHold += d.LockHold
	dst.Invocations += d.Invocations
}

// foldSink merges src's per-lock entries into dst; all quantities are
// integer sums, maxima or bools, so the result does not depend on the
// order sinks are folded in. Hot intervals fold separately (foldHot).
func foldSink(dst, src *lockSink) {
	for lock, acc := range src.accs {
		if acc == nil {
			continue
		}
		if d := dst.accs[lock]; d != nil {
			d.merge(acc)
		} else {
			dst.accs[lock] = acc
		}
	}
}

// foldHot gathers every range's hot intervals into the head range's
// sink in range order, in one slice per lock sized once to the sum of
// its ranges' lengths (finalizeMetrics sorts them).
func foldHot(ranges []p3Range) {
	dst := ranges[0].sink.hot
	for lock, hot := range dst {
		n := len(hot)
		for ri := 1; ri < len(ranges); ri++ {
			n += len(ranges[ri].sink.hot[lock])
		}
		if n == len(hot) {
			continue
		}
		if cap(hot) < n {
			hot = append(make([]interval, 0, n), hot...)
		}
		for ri := 1; ri < len(ranges); ri++ {
			hot = append(hot, ranges[ri].sink.hot[lock]...)
		}
		dst[lock] = hot
	}
}

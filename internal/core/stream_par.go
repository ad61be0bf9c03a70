package core

import (
	"fmt"

	"critlock/internal/par"
	"critlock/internal/trace"
)

// Pass 3 splits the segments into contiguous ranges, one per worker,
// and scans the ranges concurrently. (Pass 1 is one forward scan in
// trace order, in stream.go.) Range 0, the head range, starts from the
// empty state a forward scan starts from, so a thread's first event in
// it is its first in the trace and it settles everything on the spot.
// Ranges 1..k start blind to the events before them; they settle what
// their own events decide and relay the rest. A sequential merge then
// takes the head range's final state as the global state and replays
// ranges 1..k into it in order. With one worker there is only the head
// range, and nothing is relayed or replayed. The merge is exact, not
// approximate, because everything crossing a range boundary is either
//
//   - rare enough to relay verbatim and replay in global order through
//     the same code the head range runs (a thread's first event in the
//     range, cond-wait ends whose begin lies earlier, and obtains or
//     releases whose acquire does — p3Range), or
//   - commutative (per-lock sums, maxima and bools fold in fixed range
//     order; hot intervals are normalized by mergeIntervals).
//
// The walk stays sequential: it is a pointer chase along the critical
// path with no independent subproblems.

// relayEv is an event a pass-3 range after the head could not settle:
// the thread's first event in the range (first: its wait interval
// starts in an earlier range), a cond-wait end whose begin lies in an
// earlier range, or an obtain or release whose acquire does (orphan).
type relayEv struct {
	idx     int32
	t       trace.Time
	arg     int64
	obj     trace.ObjID
	thread  trace.ThreadID
	kind    trace.EventKind
	first   bool
	orphan  bool
	blocked bool // the event's blocked annotation (JoinEnd accounting)
}

// condMark is a thread's cond-wait state for one cond: a pending begin
// with its time, or settled. Settled marks stay, so a range's final map
// overrides what earlier ranges left pending.
type condMark struct {
	t   trace.Time
	has bool
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

// pass3 is the forward metric pass: per-thread blocking-time accounting
// and per-lock accumulation, delivering each thread's invocations in
// acquire order as their critical sections close. Every folded quantity
// is an integer sum, maximum or bool (floats happen once, in
// finalizeMetrics) and hot intervals normalize in mergeIntervals — so
// the output is bit-identical at any worker count. Range k decodes
// into cols[k] when there is one, a fresh column set otherwise.
func pass3(src SegmentSource, skel *trace.Trace, ann *annStore, p1 *pass1Result, an *Analysis, cfg Config, workers int, h *obsHook, cols []*trace.Columns) error {
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
			r.err = r.scan(src, ann, lo, hi, true, h, cols[0])
		} else {
			r.err = r.scan(src, ann, lo, hi, false, nil, cols[chunk])
		}
	})
	for i := range ranges {
		if ranges[i].err != nil {
			return ranges[i].err
		}
	}

	// Merge, in range order: replay each later range's relays against
	// the global state, then fold its queue tails, cond marks, thread
	// totals and sink.
	g := &ranges[0]
	segments := 0
	var events, bytes int64
	for ri := 1; ri < len(ranges); ri++ {
		r := &ranges[ri]
		for _, e := range r.relay {
			tid := int(e.thread)
			st := &g.threads[tid]
			if e.orphan {
				if !g.lockStep(st, tid, e.kind, e.obj, e.idx, e.t, e.arg) {
					return orphanError(skel, e.idx, e.kind, e.obj)
				}
			} else if !e.first || st.seen {
				// A first event with the thread unseen is its first in
				// the trace: no accounting.
				g.account(st, tid, e.kind, e.obj, e.arg, e.t, e.blocked)
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
			if rst.seen {
				gst.seen, gst.prevT = true, rst.prevT
			}
			for obj, cm := range rst.condBegin {
				gst.markCond(obj, cm)
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
	finalizeMetrics(an, g.sink, src.NumEvents())
	return nil
}

// scan runs pass 3 over segments [lo, hi). The head range settles its
// range-head cases on the spot — a thread's first event needs no
// accounting, a cond-wait end with no begin accounts nothing, an
// obtain or release with no acquire is an error — and reports each
// segment to h; later ranges relay them. Each segment decodes into
// cols.
func (r *p3Range) scan(src SegmentSource, ann *annStore, lo, hi int, head bool, h *obsHook, cols *trace.Columns) error {
	var flagsBuf []byte
	for s := lo; s < hi; s++ {
		first, _ := src.SegmentBounds(s)
		bytes, err := src.LoadColumns(s, cols)
		if err != nil {
			return err
		}
		count := cols.Len()
		if flagsBuf, err = ann.readFlags(s, flagsBuf); err != nil {
			return err
		}
		threads := r.threads
		cT, cTh, cKind, cObj, cArg := cols.T, cols.Thread, cols.Kind, cols.Obj, cols.Arg
		for k := 0; k < count; k++ {
			gi := int32(first + k)
			tid := int(cTh[k])
			st := &threads[tid]
			kind := trace.EventKind(cKind[k])
			t := cT[k]
			obj := trace.ObjID(cObj[k])
			arg := cArg[k]

			// Lock events pair up in the queue; every other event is
			// accounted against the thread's previous one, which the
			// range has only from the thread's second event on.
			firstInRange, settled, lock := !st.seen, true, isLockKind(kind)
			if lock {
				settled = r.lockStep(st, tid, kind, obj, gi, t, arg)
				if !settled && head {
					return orphanError(r.skel, gi, kind, obj)
				}
			} else if !firstInRange {
				settled = r.account(st, tid, kind, obj, arg, t, flagsBuf[k]&annBlocked != 0)
			}
			st.seen, st.prevT = true, t
			if (firstInRange || !settled) && !head {
				r.relay = append(r.relay, relayEv{
					idx: gi, t: t, arg: arg, obj: obj, thread: trace.ThreadID(tid), kind: kind,
					first: firstInRange, orphan: lock && !settled, blocked: flagsBuf[k]&annBlocked != 0,
				})
			}
		}
		if head {
			h.scanned(count, bytes)
		} else {
			r.segments++
			r.events += int64(count)
			r.bytes += bytes
		}
		// Pass 3 is the last annotation consumer, and each range owns
		// its segments exclusively; shed shards as it goes.
		ann.release(s)
	}
	return nil
}

// isLockKind reports whether kind is a lock event, which pass 3 pairs
// in the thread's invocation queue rather than accounts.
func isLockKind(kind trace.EventKind) bool {
	return kind == trace.EvLockAcquire || kind == trace.EvLockObtain || kind == trace.EvLockRelease
}

// account applies thread tid's (state st) blocking-time accounting for
// one event against its previous event (prevT) and its pending cond
// waits; lock events account nothing here. It reports false for a
// cond-wait end with no begin on record.
func (r *p3Range) account(st *streamThread, tid int, kind trace.EventKind, obj trace.ObjID, arg int64, t trace.Time, blocked bool) bool {
	ts := &r.ts[tid]
	switch kind {
	case trace.EvBarrierDepart:
		if arg == 0 {
			ts.BarrierWait += t - st.prevT
		}
	case trace.EvCondWaitBegin:
		st.markCond(obj, condMark{t: t, has: true})
	case trace.EvCondWaitEnd:
		begin := st.condBegin[obj]
		if !begin.has {
			return false
		}
		ts.CondWait += t - begin.t
		st.condBegin[obj] = condMark{}
	case trace.EvChanSend, trace.EvChanRecv:
		cs := r.sink.chanOf(obj, r.skel.ObjName(obj))
		send := kind == trace.EvChanSend
		if send {
			cs.Sends++
		} else {
			cs.Recvs++
		}
		if arg&trace.ChanArgBlocked != 0 {
			w := t - st.prevT
			if send {
				cs.BlockedSends++
				cs.SendWait += w
			} else {
				cs.BlockedRecvs++
				cs.RecvWait += w
			}
			cs.MaxWait = max(cs.MaxWait, w)
			ts.ChanWait += w
		}
	case trace.EvChanClose:
		r.sink.chanOf(obj, r.skel.ObjName(obj)).Closes++
	case trace.EvJoinEnd:
		if blocked {
			ts.JoinWait += t - st.prevT
		}
	}
	return true
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

// markCond records the thread's cond-wait state for obj.
func (st *streamThread) markCond(obj trace.ObjID, m condMark) {
	if st.condBegin == nil {
		st.condBegin = map[trace.ObjID]condMark{}
	}
	st.condBegin[obj] = m
}

// addThreadTotals folds a range's accumulated per-thread totals into dst.
func addThreadTotals(dst, d *ThreadStats) {
	dst.LockWait += d.LockWait
	dst.LockHold += d.LockHold
	dst.BarrierWait += d.BarrierWait
	dst.CondWait += d.CondWait
	dst.ChanWait += d.ChanWait
	dst.JoinWait += d.JoinWait
	dst.Invocations += d.Invocations
}

// foldSink merges src's per-lock and per-channel entries into dst;
// all quantities are integer sums, maxima or bools, so the result does
// not depend on the order sinks are folded in. Hot intervals fold
// separately (foldHot).
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
	for ch, cs := range src.chans {
		if cs == nil {
			continue
		}
		if d := dst.chans[ch]; d != nil {
			mergeChan(d, cs)
		} else {
			dst.chans[ch] = cs
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

package core

import (
	"fmt"
	"slices"

	"critlock/internal/par"
	"critlock/internal/trace"
)

// Parallel streaming passes: 1 and 3 run over disjoint contiguous
// segment ranges on worker goroutines, then a sequential merge stitches
// the per-range results back into exactly the sequential passes' output.
// The merge is exact, not approximate, because everything crossing a
// range boundary is either
//
//   - resolvable locally with a carried prefix (lock wakers: the waker
//     of a contended obtain is the latest earlier release, so an
//     in-range release settles it and only range-head obtains wait for
//     the carry), or
//   - rare enough to relay verbatim and replay through the sequential
//     state machine in global order (thread lifecycle, barriers,
//     condition variables, channels, joins — pass1Sync; orphaned
//     obtain/release pairs and first-in-range accounting — pass 3's
//     merge), or
//   - commutative (per-lock sums, maxima and bools fold in fixed range
//     order; hot intervals are normalized by mergeIntervals; composition
//     intervals sort by acquire index).
//
// The walk stays sequential: it is a pointer chase along the critical
// path with no independent subproblems.

// syncEv relays one synchronization event from a pass-1 range worker to
// the merge replay.
type syncEv struct {
	idx    int32
	t      trace.Time
	seq    uint64
	arg    int64
	obj    trace.ObjID
	thread trace.ThreadID
	kind   trace.EventKind
}

// boundaryObtain is a contended obtain whose waker (the latest earlier
// release of its lock) lies before the worker's range.
type boundaryObtain struct {
	idx int32
	obj trace.ObjID
}

// p1Range is one pass-1 worker's output.
type p1Range struct {
	err           error
	firstT, lastT trace.Time
	hasEvents     bool
	firstOfThread []int32 // thread's first in-range event (prev patched at merge)
	lastOfThread  []int32 // carry-out prev-chain tails
	lastRelease   []int32 // carry-out last release per lock, -1 = none
	boundary      []boundaryObtain
	sync          []syncEv
	segments      int
	events        int64
	bytes         int64
	spilled       int64
}

// streamPass1Par is streamPass1 over parallel segment ranges. Workers
// decode and annotate their segments, resolving lock wakers and prev
// chains locally where the range suffices; the merge then replays the
// relayed synchronization events through pass1Sync in global order and
// patches everything that crossed a boundary. Bit-identical to the
// sequential pass at any worker count.
func streamPass1Par(src ColumnSource, skel *trace.Trace, ann *annStore, workers int, h *obsHook) (*pass1Result, error) {
	nThreads := len(skel.Threads)
	nObjs := len(skel.Objects)
	nSegs := src.NumSegments()
	ranges := make([]p1Range, min(workers, nSegs))

	par.Chunks(nSegs, workers, func(chunk, lo, hi int) {
		r := &ranges[chunk]
		r.firstOfThread = make([]int32, nThreads)
		r.lastOfThread = make([]int32, nThreads)
		for tid := 0; tid < nThreads; tid++ {
			r.firstOfThread[tid] = -1
			r.lastOfThread[tid] = -1
		}
		r.lastRelease = make([]int32, nObjs)
		for o := range r.lastRelease {
			r.lastRelease[o] = -1
		}
		var cols trace.Columns
		var lkScratch, flScratch []byte
		for s := lo; s < hi; s++ {
			first, _ := src.SegmentBounds(s)
			bytes, err := src.LoadColumns(s, &cols)
			if err != nil {
				r.err = err
				return
			}
			count := cols.Len()
			lk, fl := ann.shard(s, lkScratch, flScratch)
			cT, cSeq, cTh, cKind, cObj, cArg := cols.T, cols.Seq, cols.Thread, cols.Kind, cols.Obj, cols.Arg
			for k := 0; k < count; k++ {
				gi := int32(first + k)
				th := cTh[k]
				if th < 0 || int(th) >= nThreads {
					r.err = fmt.Errorf("core: event %d references thread %d out of range", gi, th)
					return
				}
				kind := trace.EventKind(cKind[k])
				if obj := cObj[k]; uint32(obj) >= uint32(nObjs) && indexesObj(kind) {
					r.err = fmt.Errorf("core: event %d: %s references object %d out of range", gi, kind, obj)
					return
				}
				t := cT[k]
				if !r.hasEvents {
					r.firstT = t
					r.hasEvents = true
				}
				r.lastT = t
				rec := annRec{prev: r.lastOfThread[th], waker: -1}
				if r.lastOfThread[th] < 0 {
					r.firstOfThread[th] = gi
				}
				r.lastOfThread[th] = gi

				switch kind {
				case trace.EvLockObtain:
					if cArg[k]&trace.LockArgContended != 0 {
						rec.flags |= annBlocked
						if lr := r.lastRelease[cObj[k]]; lr >= 0 {
							rec.waker = lr
						} else {
							r.boundary = append(r.boundary, boundaryObtain{idx: gi, obj: trace.ObjID(cObj[k])})
						}
					}
				case trace.EvLockRelease:
					r.lastRelease[cObj[k]] = gi
				default:
					if isSyncKind(kind) {
						r.sync = append(r.sync, syncEv{
							idx: gi, t: t, seq: cSeq[k], arg: cArg[k],
							obj: trace.ObjID(cObj[k]), thread: trace.ThreadID(th), kind: kind,
						})
					}
				}

				putAnnLink(lk[k*annLinkSize:], rec.prev, rec.waker)
				fl[k] = rec.flags
			}
			spilled, err := ann.commit(s, lk, fl)
			if err != nil {
				r.err = err
				return
			}
			if !ann.inMemory() {
				lkScratch, flScratch = lk, fl
			}
			r.spilled += spilled
			r.segments++
			r.events += int64(count)
			r.bytes += bytes
		}
	})
	for i := range ranges {
		if ranges[i].err != nil {
			return nil, ranges[i].err
		}
	}

	// Merge, in range order. Boundary obtains resolve against the
	// carried global release tails; sync events replay through the
	// sequential machine; prev chains stitch across boundaries.
	p1 := newPass1Result(nThreads)
	sync := newPass1Sync(skel, p1)
	lastOf := make([]int32, nThreads)
	for tid := range lastOf {
		lastOf[tid] = -1
	}
	lastRel := make([]int32, nObjs)
	for o := range lastRel {
		lastRel[o] = -1
	}
	sawEvents := false
	segments := 0
	var events, bytes, spilled int64
	for ri := range ranges {
		r := &ranges[ri]
		for th, fi := range r.firstOfThread {
			if fi >= 0 && lastOf[th] >= 0 {
				if err := ann.patchPrev(fi, lastOf[th]); err != nil {
					return nil, err
				}
			}
		}
		// Boundary obtains saw no in-range release, so they all resolve
		// against the pre-range state — no interleaving with the
		// range's own releases is needed.
		for _, b := range r.boundary {
			if w := lastRel[b.obj]; w >= 0 {
				if err := ann.patch(b.idx, w, annBlocked); err != nil {
					return nil, err
				}
			}
		}
		for _, se := range r.sync {
			rec := annRec{prev: -1, waker: -1}
			sync.step(se.idx, se.kind, se.thread, se.obj, se.arg, se.t, se.seq, &rec)
			// Workers write sync records with zero flags; whenever the
			// sequential machine blocks one, patch the resolution in.
			if rec.flags != 0 {
				if err := ann.patch(se.idx, rec.waker, rec.flags); err != nil {
					return nil, err
				}
			}
		}
		for th := range r.lastOfThread {
			if r.lastOfThread[th] >= 0 {
				lastOf[th] = r.lastOfThread[th]
			}
		}
		for o := range r.lastRelease {
			if r.lastRelease[o] >= 0 {
				lastRel[o] = r.lastRelease[o]
			}
		}
		if r.hasEvents {
			if !sawEvents {
				p1.firstT = r.firstT
				sawEvents = true
			}
			p1.lastT = r.lastT
		}
		segments += r.segments
		events += r.events
		bytes += r.bytes
		spilled += r.spilled
	}
	for _, p := range sync.finish() {
		if err := ann.patch(p.idx, p.waker, annBlocked); err != nil {
			return nil, err
		}
	}
	if spilled > 0 {
		h.spilled(spilled)
	}
	h.scannedBulk(segments, events, bytes)
	return p1, nil
}

// acctEv relays per-thread accounting a pass-3 worker could not settle
// locally: the thread's first event in the range (first=true; accounted
// at merge against the thread's cross-range predecessor) or a
// condition-wait end whose begin lies in an earlier range.
type acctEv struct {
	idx     int32
	t       trace.Time
	arg     int64
	obj     trace.ObjID
	thread  trace.ThreadID
	kind    trace.EventKind
	first   bool
	blocked bool // JoinEnd: its waker annotation's blocked flag
}

// lockEv relays an obtain or release whose acquire lies before the
// worker's range.
type lockEv struct {
	idx    int32
	t      trace.Time
	arg    int64
	obj    trace.ObjID
	thread trace.ThreadID
	kind   trace.EventKind
}

// condMark is a worker's final condition-wait begin state for one
// (thread, cond) pair it touched: pending with its begin time, or
// settled.
type condMark struct {
	t   trace.Time
	has bool
}

// holdRec tags a composition hold interval with its acquire index so
// concatenated per-range interval runs sort back into the sequential
// delivery order.
type holdRec struct {
	acq int32
	iv  interval
}

// p3Range is one pass-3 worker's output.
type p3Range struct {
	err       error
	sink      *lockSink
	ts        []ThreadStats // accumulable fields only; folded at merge
	acct      []acctEv
	locks     []lockEv
	carry     [][]invocation // undelivered queue tail per thread
	condFinal []map[trace.ObjID]condMark
	lastT     []trace.Time
	saw       []bool
	holds     [][]holdRec
	segments  int
	events    int64
	bytes     int64
}

func (r *p3Range) markCond(tid int, obj trace.ObjID, m condMark) {
	cf := r.condFinal[tid]
	if cf == nil {
		cf = map[trace.ObjID]condMark{}
		r.condFinal[tid] = cf
	}
	cf[obj] = m
}

// streamPass3Par is streamPass3 over parallel segment ranges. Workers
// accumulate into private sinks and thread-stat deltas, deliver the
// invocations wholly inside their range, and relay range-head orphans;
// the merge replays the relays in global order against carried queues
// and folds the sinks in range order. Every folded quantity is an
// integer sum, maximum or bool (floats happen once, in
// finalizeMetrics), composition intervals sort by acquire index, and
// hot intervals normalize in mergeIntervals — so the output is
// bit-identical to the sequential pass at any worker count.
func streamPass3Par(src ColumnSource, skel *trace.Trace, ann *annStore, p1 *pass1Result, an *Analysis, cfg Config, workers int, h *obsHook) error {
	nThreads := len(skel.Threads)
	nSegs := src.NumSegments()
	threads := initStreamThreads(an, skel, p1)

	an.hotByLock = map[trace.ObjID][]interval{}
	if cfg.Composition {
		an.holdsByThread = make([][]interval, nThreads)
	}

	ranges := make([]p3Range, min(workers, nSegs))
	par.Chunks(nSegs, workers, func(chunk, lo, hi int) {
		r := &ranges[chunk]
		r.sink = newLockSink(nThreads, len(skel.Objects))
		r.ts = make([]ThreadStats, nThreads)
		r.condFinal = make([]map[trace.ObjID]condMark, nThreads)
		r.lastT = make([]trace.Time, nThreads)
		r.saw = make([]bool, nThreads)
		r.carry = make([][]invocation, nThreads)
		if cfg.Composition {
			r.holds = make([][]holdRec, nThreads)
		}
		wt := make([]streamThread, nThreads)
		for tid := range wt {
			wt[tid].clips = threads[tid].clips // read-only shared clip index
		}
		deliver := func(tid int, inv *invocation) {
			if cfg.Composition {
				r.holds[tid] = append(r.holds[tid], holdRec{inv.acquireIdx, interval{inv.obtT, inv.relT}})
			}
			st := &wt[tid]
			accumulateInvocation(r.sink, &r.ts[tid], inv, skel.ObjName(inv.lock), cfg.Options, st.clips, &st.cursor)
		}

		var cols trace.Columns
		var flagsBuf []byte
		for s := lo; s < hi; s++ {
			first, count := src.SegmentBounds(s)
			bytes, err := src.LoadColumns(s, &cols)
			if err != nil {
				r.err = err
				return
			}
			flagsBuf, err = ann.readFlags(s, flagsBuf)
			if err != nil {
				r.err = err
				return
			}
			cT, cTh, cKind, cObj, cArg := cols.T, cols.Thread, cols.Kind, cols.Obj, cols.Arg
			for k := 0; k < count; k++ {
				gi := int32(first + k)
				tid := int(cTh[k])
				st := &wt[tid]
				kind := trace.EventKind(cKind[k])
				t := cT[k]
				obj := trace.ObjID(cObj[k])
				arg := cArg[k]

				if st.seen {
					ts := &r.ts[tid]
					switch kind {
					case trace.EvBarrierDepart:
						if arg == 0 {
							ts.BarrierWait += t - st.prevT
						}
					case trace.EvCondWaitBegin:
						if st.condBegin == nil {
							st.condBegin = map[trace.ObjID]trace.Time{}
						}
						st.condBegin[obj] = t
						r.markCond(tid, obj, condMark{t: t, has: true})
					case trace.EvCondWaitEnd:
						if begin, ok := st.condBegin[obj]; ok {
							ts.CondWait += t - begin
							delete(st.condBegin, obj)
						} else {
							// Begin (if any) lies before the range.
							r.acct = append(r.acct, acctEv{idx: gi, t: t, obj: obj, thread: trace.ThreadID(tid), kind: kind})
						}
						r.markCond(tid, obj, condMark{})
					case trace.EvChanSend:
						cs := r.sink.chanOf(obj, skel.ObjName(obj))
						cs.Sends++
						if arg&trace.ChanArgBlocked != 0 {
							w := t - st.prevT
							cs.BlockedSends++
							cs.SendWait += w
							if w > cs.MaxWait {
								cs.MaxWait = w
							}
							ts.ChanWait += w
						}
					case trace.EvChanRecv:
						cs := r.sink.chanOf(obj, skel.ObjName(obj))
						cs.Recvs++
						if arg&trace.ChanArgBlocked != 0 {
							w := t - st.prevT
							cs.BlockedRecvs++
							cs.RecvWait += w
							if w > cs.MaxWait {
								cs.MaxWait = w
							}
							ts.ChanWait += w
						}
					case trace.EvChanClose:
						r.sink.chanOf(obj, skel.ObjName(obj)).Closes++
					case trace.EvJoinEnd:
						if flagsBuf[k]&annBlocked != 0 {
							ts.JoinWait += t - st.prevT
						}
					}
				} else {
					st.seen = true
					// Relay the range-head event when it needs the
					// thread's cross-range predecessor to account (or,
					// for the thread's globally first event, to be
					// skipped — the merge knows which it is).
					switch kind {
					case trace.EvBarrierDepart, trace.EvCondWaitBegin, trace.EvCondWaitEnd,
						trace.EvChanSend, trace.EvChanRecv, trace.EvChanClose, trace.EvJoinEnd:
						ae := acctEv{idx: gi, t: t, arg: arg, obj: obj, thread: trace.ThreadID(tid), kind: kind, first: true}
						if kind == trace.EvJoinEnd {
							ae.blocked = flagsBuf[k]&annBlocked != 0
						}
						r.acct = append(r.acct, ae)
					}
				}
				st.prevT = t

				switch kind {
				case trace.EvLockAcquire:
					pos := st.push(invocation{
						lock: obj, thread: trace.ThreadID(tid),
						acquireIdx: gi, obtainIdx: -1, releaseIdx: -1,
						acqT: t,
					})
					st.open.set(obj, pos)

				case trace.EvLockObtain:
					pos, ok := st.open.get(obj)
					if !ok {
						// Acquire lies before the range (or the trace is
						// malformed — the merge replay decides, with the
						// sequential pass's exact error).
						r.locks = append(r.locks, lockEv{idx: gi, t: t, arg: arg, obj: obj, thread: trace.ThreadID(tid), kind: kind})
						break
					}
					inv := st.at(pos)
					inv.obtainIdx = gi
					inv.obtT = t
					inv.contended = arg&trace.LockArgContended != 0
					inv.shared = arg&trace.LockArgShared != 0

				case trace.EvLockRelease:
					pos, ok := st.open.get(obj)
					if !ok {
						r.locks = append(r.locks, lockEv{idx: gi, t: t, arg: arg, obj: obj, thread: trace.ThreadID(tid), kind: kind})
						break
					}
					inv := st.at(pos)
					inv.releaseIdx = gi
					inv.relT = t
					st.open.del(obj)
					for st.head < len(st.pend) && st.pend[st.head].releaseIdx >= 0 {
						if st.pend[st.head].obtainIdx >= 0 {
							deliver(tid, &st.pend[st.head])
						}
						st.head++
					}
					st.compact()
				}
			}
			r.segments++
			r.events += int64(count)
			r.bytes += bytes
			// Pass 3 is the last annotation consumer, and each worker
			// owns its segments exclusively; shed shards as it goes.
			ann.release(s)
		}
		for tid := range wt {
			st := &wt[tid]
			if st.seen {
				r.saw[tid] = true
				r.lastT[tid] = st.prevT
			}
			if st.head < len(st.pend) {
				r.carry[tid] = append([]invocation(nil), st.pend[st.head:]...)
			}
		}
	})
	for i := range ranges {
		if ranges[i].err != nil {
			return ranges[i].err
		}
	}

	// Merge, in range order: replay relays against carried global
	// state, fold queues, stats and sinks.
	mergeSink := newLockSink(nThreads, len(skel.Objects))
	gSeen := make([]bool, nThreads)
	gPrevT := make([]trace.Time, nThreads)
	gCond := make([]map[trace.ObjID]trace.Time, nThreads)
	gq := make([]streamThread, nThreads)
	for tid := range gq {
		gq[tid].clips = threads[tid].clips
	}
	var holdsAcc [][]holdRec
	if cfg.Composition {
		holdsAcc = make([][]holdRec, nThreads)
	}
	mergeDeliver := func(tid int, inv *invocation) {
		if cfg.Composition {
			holdsAcc[tid] = append(holdsAcc[tid], holdRec{inv.acquireIdx, interval{inv.obtT, inv.relT}})
		}
		st := &gq[tid]
		accumulateInvocation(mergeSink, &an.Threads[tid], inv, skel.ObjName(inv.lock), cfg.Options, st.clips, &st.cursor)
	}

	segments := 0
	var events, bytes int64
	for ri := range ranges {
		r := &ranges[ri]
		for ai := range r.acct {
			ae := &r.acct[ai]
			tid := int(ae.thread)
			if ae.first && !gSeen[tid] {
				continue // the thread's globally first event: no accounting
			}
			ts := &an.Threads[tid]
			prevT := gPrevT[tid]
			switch ae.kind {
			case trace.EvBarrierDepart:
				if ae.arg == 0 {
					ts.BarrierWait += ae.t - prevT
				}
			case trace.EvCondWaitBegin:
				if gCond[tid] == nil {
					gCond[tid] = map[trace.ObjID]trace.Time{}
				}
				gCond[tid][ae.obj] = ae.t
			case trace.EvCondWaitEnd:
				if m := gCond[tid]; m != nil {
					if begin, ok := m[ae.obj]; ok {
						ts.CondWait += ae.t - begin
						delete(m, ae.obj)
					}
				}
			case trace.EvChanSend:
				cs := mergeSink.chanOf(ae.obj, skel.ObjName(ae.obj))
				cs.Sends++
				if ae.arg&trace.ChanArgBlocked != 0 {
					w := ae.t - prevT
					cs.BlockedSends++
					cs.SendWait += w
					if w > cs.MaxWait {
						cs.MaxWait = w
					}
					ts.ChanWait += w
				}
			case trace.EvChanRecv:
				cs := mergeSink.chanOf(ae.obj, skel.ObjName(ae.obj))
				cs.Recvs++
				if ae.arg&trace.ChanArgBlocked != 0 {
					w := ae.t - prevT
					cs.BlockedRecvs++
					cs.RecvWait += w
					if w > cs.MaxWait {
						cs.MaxWait = w
					}
					ts.ChanWait += w
				}
			case trace.EvChanClose:
				mergeSink.chanOf(ae.obj, skel.ObjName(ae.obj)).Closes++
			case trace.EvJoinEnd:
				if ae.blocked {
					ts.JoinWait += ae.t - prevT
				}
			}
		}

		for li := range r.locks {
			le := &r.locks[li]
			tid := int(le.thread)
			st := &gq[tid]
			switch le.kind {
			case trace.EvLockObtain:
				pos, ok := st.open.get(le.obj)
				if !ok {
					return fmt.Errorf("core: event %d: obtain of %q without acquire", le.idx, skel.ObjName(le.obj))
				}
				inv := st.at(pos)
				inv.obtainIdx = le.idx
				inv.obtT = le.t
				inv.contended = le.arg&trace.LockArgContended != 0
				inv.shared = le.arg&trace.LockArgShared != 0
			case trace.EvLockRelease:
				pos, ok := st.open.get(le.obj)
				if !ok {
					return fmt.Errorf("core: event %d: release of %q without hold", le.idx, skel.ObjName(le.obj))
				}
				inv := st.at(pos)
				inv.releaseIdx = le.idx
				inv.relT = le.t
				st.open.del(le.obj)
				for st.head < len(st.pend) && st.pend[st.head].releaseIdx >= 0 {
					if st.pend[st.head].obtainIdx >= 0 {
						mergeDeliver(tid, &st.pend[st.head])
					}
					st.head++
				}
				st.compact()
			}
		}

		for tid := range r.carry {
			st := &gq[tid]
			for ci := range r.carry[tid] {
				inv := r.carry[tid][ci]
				pos := st.push(inv)
				if inv.releaseIdx < 0 {
					// Rebuilding open in queue order reproduces the
					// same-lock overwrite the workers applied.
					st.open.set(inv.lock, pos)
				}
			}
		}

		for tid := 0; tid < nThreads; tid++ {
			if r.saw[tid] {
				gSeen[tid] = true
				gPrevT[tid] = r.lastT[tid]
			}
			if cf := r.condFinal[tid]; cf != nil {
				for obj, cm := range cf {
					if cm.has {
						if gCond[tid] == nil {
							gCond[tid] = map[trace.ObjID]trace.Time{}
						}
						gCond[tid][obj] = cm.t
					} else if gCond[tid] != nil {
						delete(gCond[tid], obj)
					}
				}
			}
			ts, d := &an.Threads[tid], &r.ts[tid]
			ts.LockWait += d.LockWait
			ts.LockHold += d.LockHold
			ts.BarrierWait += d.BarrierWait
			ts.CondWait += d.CondWait
			ts.ChanWait += d.ChanWait
			ts.JoinWait += d.JoinWait
			ts.Invocations += d.Invocations
		}

		foldSink(mergeSink, r.sink)
		segments += r.segments
		events += r.events
		bytes += r.bytes
	}

	// End of trace: same as the sequential pass, over the carried
	// global queues.
	for tid := range gq {
		st := &gq[tid]
		for k := st.head; k < len(st.pend); k++ {
			inv := &st.pend[k]
			if inv.obtainIdx < 0 {
				continue
			}
			if inv.releaseIdx < 0 {
				inv.relT = p1.lastT
			}
			mergeDeliver(tid, inv)
		}
	}

	if cfg.Composition {
		for tid := 0; tid < nThreads; tid++ {
			var recs []holdRec
			for ri := range ranges {
				recs = append(recs, ranges[ri].holds[tid]...)
			}
			recs = append(recs, holdsAcc[tid]...)
			if len(recs) == 0 {
				continue
			}
			// Sequential delivery per thread is acquire order; acquire
			// indices are unique, so this sort restores it exactly.
			slices.SortFunc(recs, func(a, b holdRec) int {
				switch {
				case a.acq < b.acq:
					return -1
				case a.acq > b.acq:
					return 1
				}
				return 0
			})
			ivs := make([]interval, len(recs))
			for i := range recs {
				ivs[i] = recs[i].iv
			}
			an.holdsByThread[tid] = ivs
		}
	}

	h.scannedBulk(segments, events, bytes)
	finalizeMetrics(an, mergeSink, src.NumEvents())
	return nil
}

// foldSink merges src into dst entry-by-entry; all quantities are
// integer sums, maxima or bools, so the result does not depend on the
// order sinks are folded in.
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
	for lock, ivs := range src.hot {
		if len(ivs) > 0 {
			dst.hot[lock] = append(dst.hot[lock], ivs...)
		}
	}
}

package core

import (
	"slices"

	"critlock/internal/trace"
)

// lockAcc accumulates one mutex's statistics during the metric pass.
type lockAcc struct {
	stats LockStats
	// waitByThread / holdByThread accumulate per-thread totals for
	// the TYPE 2 percentage averages (dense by ThreadID).
	waitByThread []trace.Time
	holdByThread []trace.Time
}

// merge folds src (accumulated over a disjoint segment range) into a.
func (a *lockAcc) merge(src *lockAcc) {
	d, s := &a.stats, &src.stats
	d.Critical = d.Critical || s.Critical
	d.HoldOnCP += s.HoldOnCP
	d.InvocationsOnCP += s.InvocationsOnCP
	d.ContendedOnCP += s.ContendedOnCP
	d.TotalInvocations += s.TotalInvocations
	d.SharedInvocations += s.SharedInvocations
	d.TotalContended += s.TotalContended
	d.TotalWait += s.TotalWait
	d.TotalHold += s.TotalHold
	if s.MaxWait > d.MaxWait {
		d.MaxWait = s.MaxWait
	}
	if s.MaxHold > d.MaxHold {
		d.MaxHold = s.MaxHold
	}
	for tid, w := range src.waitByThread {
		a.waitByThread[tid] += w
	}
	for tid, h := range src.holdByThread {
		a.holdByThread[tid] += h
	}
}

// lockSink is one accumulation domain: pass 3 gives each segment range
// its own and folds the later ranges' into the head range's in range
// order, so results are bit-identical at any range count (all merged
// quantities are integer sums, maxima or bools).
type lockSink struct {
	nThreads int
	// Object IDs are dense (0..nObjs), so the per-object accumulators
	// are plain slices — the metric pass touches one per critical
	// section, and a map lookup there costs more than the whole
	// arithmetic update. A nil entry means the object was never hit.
	accs []*lockAcc
	hot  [][]interval
}

func newLockSink(nThreads, nObjs int) *lockSink {
	return &lockSink{
		nThreads: nThreads,
		accs:     make([]*lockAcc, nObjs),
		hot:      make([][]interval, nObjs),
	}
}

func (s *lockSink) accOf(lock trace.ObjID, name string) *lockAcc {
	a := s.accs[lock]
	if a == nil {
		a = &lockAcc{
			stats:        LockStats{Lock: lock, Name: name},
			waitByThread: make([]trace.Time, s.nThreads),
			holdByThread: make([]trace.Time, s.nThreads),
		}
		s.accs[lock] = a
	}
	return a
}

// chanTally is the per-channel counts, indexed by object; an entry is
// made on the channel's first use.
type chanTally []*ChanStats

func (c chanTally) of(ch trace.ObjID, name string) *ChanStats {
	cs := c[ch]
	if cs == nil {
		cs = &ChanStats{Chan: ch, Name: name}
		c[ch] = cs
	}
	return cs
}

// finalizeMetrics turns the merged accumulation sink and the channel
// counts into the analysis's Locks, Chans, Totals and hot-interval
// index: it registers unused mutexes and channels, sums totals, merges
// per-lock on-path intervals and computes the derived percentages.
// Every merged input is an integer sum/maximum/bool and every float is
// computed here exactly once, which is what makes the result
// bit-identical at any range count.
func finalizeMetrics(an *Analysis, merged *lockSink, chans chanTally, nEvents int) {
	tr := an.Trace
	nThreads := len(tr.Threads)

	// Register every mutex and channel, even unused ones, so reports
	// list them.
	for _, o := range tr.Objects {
		switch o.Kind {
		case trace.ObjMutex:
			merged.accOf(o.ID, o.Name)
		case trace.ObjChan:
			chans.of(o.ID, o.Name)
		}
	}

	// Totals.
	an.Totals = Totals{
		Threads: nThreads,
		Events:  nEvents,
	}
	for _, o := range tr.Objects {
		switch o.Kind {
		case trace.ObjMutex:
			an.Totals.Mutexes++
		case trace.ObjChan:
			an.Totals.Channels++
		}
	}
	for tid := range an.Threads {
		ts := &an.Threads[tid]
		an.Totals.TotalLockWait += ts.LockWait
		an.Totals.TotalLockHold += ts.LockHold
		an.Totals.TotalBarrierWait += ts.BarrierWait
		an.Totals.TotalCondWait += ts.CondWait
		an.Totals.TotalChanWait += ts.ChanWait
		an.Totals.Invocations += ts.Invocations
	}

	// Sort the per-lock on-path intervals (a mutex is held by one
	// thread at a time, so they never overlap and merging just sorts).
	for lock, ivs := range merged.hot {
		if len(ivs) > 0 {
			an.hotByLock[trace.ObjID(lock)] = mergeIntervals(ivs)
		}
	}

	// Finalize percentages.
	cpLen := an.CP.Length
	for _, a := range merged.accs {
		if a == nil {
			continue
		}
		st := &a.stats
		an.Totals.ContendedInvs += st.TotalContended
		if cpLen > 0 {
			st.CPTimePct = 100 * float64(st.HoldOnCP) / float64(cpLen)
		}
		if st.InvocationsOnCP > 0 {
			st.ContProbOnCP = 100 * float64(st.ContendedOnCP) / float64(st.InvocationsOnCP)
		}
		if st.TotalInvocations > 0 {
			st.AvgContProb = 100 * float64(st.TotalContended) / float64(st.TotalInvocations)
		}
		if nThreads > 0 {
			st.AvgInvPerThread = float64(st.TotalInvocations) / float64(nThreads)
		}
		var waitPct, holdPct float64
		for tid := 0; tid < nThreads; tid++ {
			lt := an.Threads[tid].Lifetime
			if lt <= 0 {
				continue
			}
			waitPct += 100 * float64(a.waitByThread[tid]) / float64(lt)
			holdPct += 100 * float64(a.holdByThread[tid]) / float64(lt)
		}
		if nThreads > 0 {
			st.WaitTimePct = waitPct / float64(nThreads)
			st.AvgHoldTimePct = holdPct / float64(nThreads)
		}
		if st.AvgInvPerThread > 0 {
			st.InvIncrease = float64(st.InvocationsOnCP) / st.AvgInvPerThread
		}
		if st.AvgHoldTimePct > 0 {
			st.SizeIncrease = st.CPTimePct / st.AvgHoldTimePct
		}
		an.Locks = append(an.Locks, *st)
	}
	sortLocks(an.Locks)

	// Channel critical-path attribution comes straight from the jump
	// log: every jump through a channel carries the blocked interval it
	// absorbed.
	for _, j := range an.CP.JumpLog {
		if j.Kind != JumpChan {
			continue
		}
		cs := chans.of(j.Obj, tr.ObjName(j.Obj))
		cs.JumpsOnCP++
		cs.WaitOnCP += j.Wait
	}
	for _, cs := range chans {
		if cs == nil {
			continue
		}
		cs.Capacity = tr.Object(cs.Chan).Parties
		cs.TotalWait = cs.SendWait + cs.RecvWait
		an.Chans = append(an.Chans, *cs)
	}
	sortChans(an.Chans)
}

// sortClipIndex time-orders one thread's clip index by piece start.
// The comparator consults only From, exactly like the []Piece sort it
// replaced, so the resulting clip order is unchanged (ties keep their
// emit order only by accident of the sort, but clipAgainst sums over
// overlapping pieces and mergeIntervals canonicalizes the emitted
// intervals, so tie order cannot reach the output).
func sortClipIndex(clips []clip) {
	// The walk emits pieces in forward time order, so a thread's index
	// subsequence is nearly always sorted already; verify in one scan
	// before paying for a sort.
	sorted := true
	for k := 1; k < len(clips); k++ {
		if clips[k].From < clips[k-1].From {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	slices.SortFunc(clips, func(a, b clip) int {
		switch {
		case a.From < b.From:
			return -1
		case a.From > b.From:
			return 1
		}
		return 0
	})
}

// accumulateInvocation folds one obtained invocation into the sink and
// its thread's stats, clipping the hold interval against the thread's
// time-sorted critical-path clip index (indices into cp) via the
// caller's advancing cursor. Invocations of a thread must arrive in
// obtain order. Pass 3's ranges and its merge replay all deliver
// through it.
func accumulateInvocation(sink *lockSink, ts *ThreadStats, inv *invocation, name string, opts Options, clips []clip, cursor *int) {
	a := sink.accOf(inv.lock, name)
	st := &a.stats
	tid := int(inv.thread)

	w, h := inv.wait(), inv.hold()
	st.TotalInvocations++
	if inv.shared {
		st.SharedInvocations++
	}
	if inv.contended {
		st.TotalContended++
	}
	st.TotalWait += w
	st.TotalHold += h
	if w > st.MaxWait {
		st.MaxWait = w
	}
	if h > st.MaxHold {
		st.MaxHold = h
	}
	a.waitByThread[tid] += w
	a.holdByThread[tid] += h

	ts.LockWait += w
	ts.LockHold += h
	ts.Invocations++

	onCP, clipped := clipAgainst(clips, cursor, inv.obtT, inv.relT, inv.obtainIdx,
		func(lo, hi trace.Time) {
			sink.hot[inv.lock] = append(sink.hot[inv.lock], interval{lo, hi})
		})
	if !onCP {
		return
	}
	st.Critical = true
	st.InvocationsOnCP++
	if inv.contended {
		st.ContendedOnCP++
	}
	if opts.ClipHold {
		st.HoldOnCP += clipped
	} else {
		st.HoldOnCP += h
	}
}

// clip is one critical-path piece in a thread's clip index: its time
// interval and the event-index stretch the walk visited for it (see
// Piece).
type clip struct {
	From, To    trace.Time
	first, last int32
}

// clipAgainst intersects the hold [from, to] of the critical section
// obtained at event index obtain with the sorted clip intervals,
// advancing the caller's cursor (invocations arrive in increasing
// obtain order, so the sweep is O(pieces + invocations) per thread).
// It returns whether the section lies on the critical path and the
// total intersection length; each nonzero intersection is also
// reported to emit (used to build the per-lock on-path interval
// index). A section with a nonzero intersection is on the path. A
// zero-length one is on it when the walk visited its obtain: the
// index, not the time, decides, since the path may leave (or enter)
// the thread at the very timestamp of the section without passing
// through it.
func clipAgainst(clips []clip, cursor *int, from, to trace.Time, obtain int32, emit func(lo, hi trace.Time)) (bool, trace.Time) {
	// Advance past pieces that end before this invocation begins. The
	// cursor only moves forward: a later invocation can never overlap
	// a piece that ended before an earlier one began.
	for *cursor < len(clips) && clips[*cursor].To < from {
		*cursor++
	}
	onCP := false
	var total trace.Time
	for i := *cursor; i < len(clips); i++ {
		p := clips[i]
		if p.From > to {
			break
		}
		lo, hi := p.From, p.To
		if from > lo {
			lo = from
		}
		if to < hi {
			hi = to
		}
		if hi > lo {
			onCP = true
			total += hi - lo
			if emit != nil {
				emit(lo, hi)
			}
		} else if from == to && p.first <= obtain && obtain <= p.last {
			// Zero-length critical section the walked path passes
			// through.
			onCP = true
		}
	}
	return onCP, total
}

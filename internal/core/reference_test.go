package core

import (
	"critlock/internal/trace"
)

// The reference analysis: a direct transcription of the paper's
// algorithm over a whole event slice, written for clarity and used as
// the test oracle for the analysis pipeline. It shares no code with the
// passes except finalizeMetrics, which turns integer sums into the
// reported percentages and fixes the table order, and the lockSink that
// carries those sums to it.
//
// Semantics follow the trace model of Sulzmann, "Critical Sections Are
// Not Per-Thread" (arXiv 2603.13142): a trace is a totally ordered
// sequence of events; each thread's events form its program order; and
// a blocked event depends on exactly one remote event, its waker:
//
//   - a contended lock obtain on the latest earlier release of the lock;
//   - a blocked barrier depart on the last arrive of its episode (a
//     thread's k-th depart belongs to its k-th arrive; episode e holds
//     arrives e·parties … e·parties+parties-1), unless that arrive is
//     the departing thread's own;
//   - a condition wait end on the signal or broadcast that dequeued the
//     waiter (waiters queue FIFO at wait begin);
//   - a blocked value receive #r on send #r of the channel, a blocked
//     send #s on receive #(s-capacity), and a blocked receive of a
//     closed channel on the latest earlier close;
//   - a blocked join end on the joinee's exit, when the exit happened
//     after the join began;
//   - a thread start on the first create of that thread.
//
// The critical path is walked backwards from the last thread exit
// (paper Fig. 2), and the TYPE 1 metrics intersect each critical
// section with the path pieces of its own thread.

// ReferenceAnalysis exposes the reference to the external test package.
var ReferenceAnalysis = referenceAnalysis

func referenceAnalysis(tr *trace.Trace, opts Options) *Analysis {
	deps := refResolveWakers(tr)
	an := &Analysis{Trace: tr, Start: tr.Start(), CP: refWalk(tr, deps)}
	refMetrics(an, deps, opts)
	return an
}

// refDeps is the dependency structure of a trace: per event, its
// predecessor on the same thread, its waker, and whether the interval
// before it was spent blocked.
type refDeps struct {
	prev    []int
	waker   []int
	blocked []bool
}

// refKey pairs an object with a thread.
type refKey struct {
	obj    trace.ObjID
	thread trace.ThreadID
}

// refEpisode names one barrier episode.
type refEpisode struct {
	barrier trace.ObjID
	episode int
}

func refResolveWakers(tr *trace.Trace) *refDeps {
	evs := tr.Events
	d := &refDeps{prev: make([]int, len(evs)), waker: make([]int, len(evs)), blocked: make([]bool, len(evs))}

	lastOnThread := map[trace.ThreadID]int{}
	lastRelease := map[trace.ObjID]int{}
	lastExit := map[trace.ThreadID]int{}
	lastClose := map[trace.ObjID]int{}
	joinBegin := map[trace.ThreadID]trace.Time{}
	firstCreate := map[trace.ThreadID]int{}
	var starts []int

	arrivals := map[trace.ObjID]int{}
	lastArrive := map[refEpisode]int{}
	arriveEpisodes := map[refKey][]int{}
	departs := map[refKey]int{}
	departEpisode := map[int]refEpisode{} // blocked depart → its episode

	waiting := map[trace.ObjID][]trace.ThreadID{}
	signalled := map[refKey]int{}

	sends := map[trace.ObjID][]int{}
	recvs := map[trace.ObjID][]int{}

	for i, e := range evs {
		d.prev[i], d.waker[i] = -1, -1
		if p, ok := lastOnThread[e.Thread]; ok {
			d.prev[i] = p
		}
		lastOnThread[e.Thread] = i
		key := refKey{e.Obj, e.Thread}
		// wakeBy marks event i blocked, with waker w if it exists.
		wakeBy := func(w int, ok bool) {
			d.blocked[i] = true
			if ok {
				d.waker[i] = w
			}
		}

		switch e.Kind {
		case trace.EvThreadStart:
			starts = append(starts, i)
		case trace.EvThreadCreate:
			if _, ok := firstCreate[trace.ThreadID(e.Arg)]; !ok {
				firstCreate[trace.ThreadID(e.Arg)] = i
			}
		case trace.EvThreadExit:
			lastExit[e.Thread] = i

		case trace.EvLockObtain:
			if e.Contended() {
				w, ok := lastRelease[e.Obj]
				wakeBy(w, ok)
			}
		case trace.EvLockRelease:
			lastRelease[e.Obj] = i

		case trace.EvBarrierArrive:
			ep := 0
			if parties := tr.Object(e.Obj).Parties; parties > 0 {
				ep = arrivals[e.Obj] / parties
			}
			arrivals[e.Obj]++
			lastArrive[refEpisode{e.Obj, ep}] = i
			arriveEpisodes[key] = append(arriveEpisodes[key], ep)
		case trace.EvBarrierDepart:
			k := departs[key]
			departs[key]++
			if e.Arg == 0 && k < len(arriveEpisodes[key]) {
				// The episode's last arrive may still lie ahead (equal
				// timestamps); resolve after the scan.
				d.blocked[i] = true
				departEpisode[i] = refEpisode{e.Obj, arriveEpisodes[key][k]}
			}

		case trace.EvCondWaitBegin:
			waiting[e.Obj] = append(waiting[e.Obj], e.Thread)
		case trace.EvCondSignal:
			if q := waiting[e.Obj]; len(q) > 0 {
				signalled[refKey{e.Obj, q[0]}] = i
				waiting[e.Obj] = q[1:]
			}
		case trace.EvCondBroadcast:
			for _, th := range waiting[e.Obj] {
				signalled[refKey{e.Obj, th}] = i
			}
			waiting[e.Obj] = nil
		case trace.EvCondWaitEnd:
			w, ok := signalled[key]
			wakeBy(w, ok)
			if ok {
				delete(signalled, key)
			} else {
				// Spurious or unmatched wakeup: leave the queue.
				q := waiting[e.Obj]
				for j, th := range q {
					if th == e.Thread {
						waiting[e.Obj] = append(q[:j:j], q[j+1:]...)
						break
					}
				}
			}

		case trace.EvChanSend:
			if e.Arg&trace.ChanArgBlocked != 0 {
				wakeBy(nth(recvs[e.Obj], len(sends[e.Obj])-max(tr.Object(e.Obj).Parties, 0)))
			}
			sends[e.Obj] = append(sends[e.Obj], i)
		case trace.EvChanRecv:
			blocked := e.Arg&trace.ChanArgBlocked != 0
			if e.Arg&trace.ChanArgClosed != 0 {
				if blocked {
					w, ok := lastClose[e.Obj]
					wakeBy(w, ok)
				}
				break
			}
			if blocked {
				wakeBy(nth(sends[e.Obj], len(recvs[e.Obj])))
			}
			recvs[e.Obj] = append(recvs[e.Obj], i)
		case trace.EvChanClose:
			lastClose[e.Obj] = i

		case trace.EvJoinBegin:
			joinBegin[e.Thread] = e.T
		case trace.EvJoinEnd:
			if x, ok := lastExit[trace.ThreadID(e.Arg)]; ok && evs[x].T > joinBegin[e.Thread] {
				wakeBy(x, true)
			}
		}
	}

	for i, ep := range departEpisode {
		if la := lastArrive[ep]; evs[la].Thread != evs[i].Thread {
			d.waker[i] = la
		}
	}
	for _, i := range starts {
		if c, ok := firstCreate[evs[i].Thread]; ok {
			d.blocked[i] = true
			d.waker[i] = c
		}
	}
	return d
}

// nth returns list[k], if it exists.
func nth(list []int, k int) (int, bool) {
	if k < 0 || k >= len(list) {
		return -1, false
	}
	return list[k], true
}

var refJumpKinds = map[trace.EventKind]JumpKind{
	trace.EvLockObtain:    JumpLock,
	trace.EvBarrierDepart: JumpBarrier,
	trace.EvCondWaitEnd:   JumpCond,
	trace.EvJoinEnd:       JumpJoin,
	trace.EvChanSend:      JumpChan,
	trace.EvChanRecv:      JumpChan,
}

// refWalk is the backward walk of the paper's Fig. 2. The interval
// ending at event e on its thread is either executed (recorded as a
// piece, and the walk steps back on the thread) or spent blocked with a
// known waker (the walk jumps to the waker).
func refWalk(tr *trace.Trace, d *refDeps) CriticalPath {
	evs := tr.Events
	anchor := len(evs) - 1 // no thread exited: the last event
	for i, e := range evs {
		if e.Kind == trace.EvThreadExit {
			anchor = i
		}
	}
	cp := CriticalPath{LastThread: evs[anchor].Thread, WallTime: tr.Duration()}

	var pieces []Piece
	var jumps []Jump
	cur := anchor
	for steps := 0; ; steps++ {
		if steps > 2*len(evs)+2 {
			panic("reference walk did not terminate")
		}
		cp.Steps = steps
		e := evs[cur]
		if e.Kind == trace.EvThreadStart {
			if d.waker[cur] < 0 {
				break // the program's beginning
			}
			jumps = append(jumps, Jump{T: e.T, From: e.Thread, To: evs[d.waker[cur]].Thread, Kind: JumpStart, Obj: trace.NoObj})
			cur = d.waker[cur]
			continue
		}
		prev := d.prev[cur]
		if prev < 0 {
			break
		}
		if w := d.waker[cur]; d.blocked[cur] && w >= 0 {
			// A condition wait that re-acquired a contended mutex at or
			// after the signal was released last by the mutex: step to
			// the obtain, whose own jump follows the previous holder.
			if e.Kind == trace.EvCondWaitEnd && evs[prev].Kind == trace.EvLockObtain &&
				d.blocked[prev] && d.waker[prev] >= 0 && evs[prev].T >= evs[w].T {
				cur = prev
				continue
			}
			jumps = append(jumps, Jump{T: e.T, From: e.Thread, To: evs[w].Thread,
				Kind: refJumpKinds[e.Kind], Obj: e.Obj, Wait: e.T - evs[prev].T})
			cur = w
			continue
		}
		if e.T > evs[prev].T {
			kind := PieceExec
			if d.blocked[cur] {
				kind = PieceWait // blocked, but the waker is unknown
			}
			pieces = append(pieces, Piece{Thread: e.Thread, From: evs[prev].T, To: e.T, Kind: kind})
		}
		cur = prev
	}

	// Forward time order.
	cp.Pieces = make([]Piece, 0, len(pieces))
	for i := len(pieces) - 1; i >= 0; i-- {
		cp.Pieces = append(cp.Pieces, pieces[i])
	}
	for i := len(jumps) - 1; i >= 0; i-- {
		cp.JumpLog = append(cp.JumpLog, jumps[i])
	}
	cp.Jumps = len(jumps)
	for _, p := range cp.Pieces {
		cp.Length += p.Dur()
		if p.Kind == PieceExec {
			cp.ExecTime += p.Dur()
		} else {
			cp.WaitTime += p.Dur()
		}
	}
	return cp
}

// refInvocation is one critical section.
type refInvocation struct {
	lock                trace.ObjID
	thread              trace.ThreadID
	acqT, obtT, relT    trace.Time
	obtained, released  bool
	contended, isShared bool
}

// refMetrics computes the per-thread blocking times, the channel
// counters and the TYPE 1/TYPE 2 lock metrics.
func refMetrics(an *Analysis, d *refDeps, opts Options) {
	tr := an.Trace
	evs := tr.Events
	an.Threads = make([]ThreadStats, len(tr.Threads))
	for tid := range an.Threads {
		an.Threads[tid] = ThreadStats{Thread: trace.ThreadID(tid), Name: tr.Threads[tid].Name, End: tr.End()}
	}
	for _, e := range evs {
		switch e.Kind {
		case trace.EvThreadStart:
			an.Threads[e.Thread].Start = e.T
		case trace.EvThreadExit:
			an.Threads[e.Thread].End = e.T
		}
	}
	for tid := range an.Threads {
		ts := &an.Threads[tid]
		ts.Lifetime = ts.End - ts.Start
	}
	piecesOf := map[trace.ThreadID][]Piece{}
	for _, p := range an.CP.Pieces {
		piecesOf[p.Thread] = append(piecesOf[p.Thread], p)
		an.Threads[p.Thread].TimeOnCP += p.Dur()
	}

	sink := newLockSink(len(tr.Threads), len(tr.Objects))

	// Blocking time: the interval before an event on its thread (a
	// thread's first event has none).
	condBegin := map[refKey]trace.Time{}
	for i, e := range evs {
		if d.prev[i] < 0 {
			continue
		}
		gap := e.T - evs[d.prev[i]].T
		ts := &an.Threads[e.Thread]
		key := refKey{e.Obj, e.Thread}
		blocked := e.Arg&trace.ChanArgBlocked != 0
		switch e.Kind {
		case trace.EvBarrierDepart:
			if e.Arg == 0 {
				ts.BarrierWait += gap
			}
		case trace.EvCondWaitBegin:
			condBegin[key] = e.T
		case trace.EvCondWaitEnd:
			if begin, ok := condBegin[key]; ok {
				ts.CondWait += e.T - begin
				delete(condBegin, key)
			}
		case trace.EvJoinEnd:
			if d.blocked[i] {
				ts.JoinWait += gap
			}
		case trace.EvChanClose:
			sink.chanOf(e.Obj, tr.ObjName(e.Obj)).Closes++
		case trace.EvChanSend, trace.EvChanRecv:
			cs := sink.chanOf(e.Obj, tr.ObjName(e.Obj))
			if e.Kind == trace.EvChanSend {
				cs.Sends++
			} else {
				cs.Recvs++
			}
			if !blocked {
				break
			}
			if e.Kind == trace.EvChanSend {
				cs.BlockedSends++
				cs.SendWait += gap
			} else {
				cs.BlockedRecvs++
				cs.RecvWait += gap
			}
			cs.MaxWait = max(cs.MaxWait, gap)
			ts.ChanWait += gap
		}
	}

	// Critical sections, in acquire order.
	var invs []*refInvocation
	open := map[refKey]*refInvocation{}
	for _, e := range evs {
		key := refKey{e.Obj, e.Thread}
		switch e.Kind {
		case trace.EvLockAcquire:
			inv := &refInvocation{lock: e.Obj, thread: e.Thread, acqT: e.T}
			invs = append(invs, inv)
			open[key] = inv
		case trace.EvLockObtain:
			inv := open[key]
			inv.obtained, inv.obtT = true, e.T
			inv.contended, inv.isShared = e.Contended(), e.Shared()
		case trace.EvLockRelease:
			inv := open[key]
			inv.released, inv.relT = true, e.T
			delete(open, key)
		}
	}

	an.hotByLock = map[trace.ObjID][]interval{}
	an.holdsByThread = make([][]interval, len(tr.Threads))
	for _, inv := range invs {
		if !inv.obtained {
			continue
		}
		if !inv.released {
			inv.relT = tr.End() // held to the end of the trace
		}
		wait, hold := inv.obtT-inv.acqT, inv.relT-inv.obtT
		acc := sink.accOf(inv.lock, tr.ObjName(inv.lock))
		st := &acc.stats
		ts := &an.Threads[inv.thread]

		// TYPE 2: every invocation.
		st.TotalInvocations++
		if inv.isShared {
			st.SharedInvocations++
		}
		if inv.contended {
			st.TotalContended++
		}
		st.TotalWait += wait
		st.TotalHold += hold
		st.MaxWait = max(st.MaxWait, wait)
		st.MaxHold = max(st.MaxHold, hold)
		acc.waitByThread[inv.thread] += wait
		acc.holdByThread[inv.thread] += hold
		ts.LockWait += wait
		ts.LockHold += hold
		ts.Invocations++
		an.holdsByThread[inv.thread] = append(an.holdsByThread[inv.thread], interval{inv.obtT, inv.relT})

		// TYPE 1: the hold's overlap with the thread's own path pieces.
		// A zero-length hold counts when the path passes through it.
		onCP := false
		var onPath trace.Time
		for _, p := range piecesOf[inv.thread] {
			lo, hi := max(p.From, inv.obtT), min(p.To, inv.relT)
			if hi > lo {
				onCP = true
				onPath += hi - lo
				sink.hot[inv.lock] = append(sink.hot[inv.lock], interval{lo, hi})
			} else if hold == 0 && p.From <= inv.obtT && inv.obtT <= p.To {
				onCP = true
			}
		}
		if !onCP {
			continue
		}
		st.Critical = true
		st.InvocationsOnCP++
		if inv.contended {
			st.ContendedOnCP++
		}
		if opts.ClipHold {
			st.HoldOnCP += onPath
		} else {
			st.HoldOnCP += hold
		}
	}

	finalizeMetrics(an, sink, len(evs))
}

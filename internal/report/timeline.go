package report

import (
	"critlock/internal/core"
	"critlock/internal/trace"
)

// spanKind classifies an interval the timelines draw.
type spanKind uint8

const (
	spanLife spanKind = iota // a thread's start to its exit
	spanLockWait
	spanHold
	spanBarrierWait
	spanCondWait
	spanJoinWait
)

// span is one interval of one thread's timeline.
type span struct {
	kind     spanKind
	thread   trace.ThreadID
	obj      trace.ObjID
	from, to trace.Time
	shared   bool // a reader (shared) hold
}

// timelineSpans sweeps src twice and calls fn with the intervals the
// Gantt and SVG timelines draw, in the order they end: every thread's
// lifetime first, then its blocked intervals (only those of positive
// length) and critical sections, so that those paint over the
// lifetimes.
func timelineSpans(src core.SegmentSource, threads int, fn func(span)) error {
	started := make([]trace.Time, threads)
	err := core.ForEachEvent(src, func(e trace.Event) {
		switch e.Kind {
		case trace.EvThreadStart:
			started[e.Thread] = e.T
		case trace.EvThreadExit:
			fn(span{kind: spanLife, thread: e.Thread, obj: trace.NoObj, from: started[e.Thread], to: e.T})
		}
	})
	if err != nil {
		return err
	}

	// A wait opens at an acquire, barrier arrive, cond-wait begin or
	// join begin (keyed by thread and object; joins by thread alone),
	// and a hold at an obtain.
	type key struct {
		thread trace.ThreadID
		obj    trace.ObjID
	}
	waits := map[key]trace.Time{}
	holds := map[key]trace.Time{}
	closeWait := func(e trace.Event, k key, kind spanKind, blocked bool) {
		if begin, ok := waits[k]; ok {
			if blocked && e.T > begin {
				fn(span{kind: kind, thread: e.Thread, obj: e.Obj, from: begin, to: e.T})
			}
			delete(waits, k)
		}
	}
	return core.ForEachEvent(src, func(e trace.Event) {
		k := key{e.Thread, e.Obj}
		switch e.Kind {
		case trace.EvLockAcquire, trace.EvBarrierArrive, trace.EvCondWaitBegin:
			waits[k] = e.T
		case trace.EvJoinBegin:
			waits[key{e.Thread, trace.NoObj}] = e.T
		case trace.EvLockObtain:
			closeWait(e, k, spanLockWait, true)
			holds[k] = e.T
		case trace.EvLockRelease:
			if obt, ok := holds[k]; ok {
				fn(span{kind: spanHold, thread: e.Thread, obj: e.Obj, from: obt, to: e.T, shared: e.Shared()})
				delete(holds, k)
			}
		case trace.EvBarrierDepart:
			closeWait(e, k, spanBarrierWait, e.Arg == 0)
		case trace.EvCondWaitEnd:
			closeWait(e, k, spanCondWait, true)
		case trace.EvJoinEnd:
			closeWait(e, key{e.Thread, trace.NoObj}, spanJoinWait, true)
		}
	})
}

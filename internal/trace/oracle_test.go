package trace

import (
	"fmt"
	"slices"
)

// validateWithMaps is the reference validator: one map[ObjID]uint8 per
// thread and a map of closed channels, inserted into and deleted from
// on every event. It is simpler than the dense state of Validate, so
// the differential tests and FuzzValidate hold Validate to it: both
// must return nil or the same problems.
func validateWithMaps(tr *Trace) error {
	var v mapValidator
	v.run(tr)
	if len(v.problems) == 0 {
		return nil
	}
	return &ValidationError{Problems: v.problems}
}

type mapValidator struct {
	problems []string
}

func (v *mapValidator) errf(format string, args ...any) {
	if len(v.problems) < 1000 { // cap memory on pathological traces
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

type mapThreadState struct {
	started bool
	exited  bool
	// objs holds the nonzero state bits of each object the thread is
	// in the middle of using.
	objs map[ObjID]uint8
	// inSelect is true between a select event and the completion of
	// its chosen case (a select resolved by default leaves it set; the
	// next select-chosen completion still needs a fresh select event,
	// which simply re-arms the flag).
	inSelect bool
}

// update replaces obj's state bits, dropping the entry once none are
// left.
func (st *mapThreadState) update(obj ObjID, bits uint8) {
	if bits == 0 {
		delete(st.objs, obj)
		return
	}
	if st.objs == nil {
		st.objs = make(map[ObjID]uint8)
	}
	st.objs[obj] = bits
}

// with lists the objects that have bit set, in ID order, so problems
// about leftover state read the same on every run.
func (st *mapThreadState) with(bit uint8) []ObjID {
	var ids []ObjID
	for id, bits := range st.objs {
		if bits&bit != 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func (v *mapValidator) run(tr *Trace) {
	states := make([]mapThreadState, len(tr.Threads))
	closedChans := make(map[ObjID]bool)

	objKind := func(id ObjID) (ObjKind, bool) {
		if id < 0 || int(id) >= len(tr.Objects) {
			return 0, false
		}
		return tr.Objects[id].Kind, true
	}

	var prevT Time
	var prevSeq uint64
	for i, e := range tr.Events {
		if i > 0 && (e.T < prevT || (e.T == prevT && e.Seq <= prevSeq)) {
			v.errf("event %d out of order (t=%d seq=%d after t=%d seq=%d)", i, e.T, e.Seq, prevT, prevSeq)
		}
		prevT, prevSeq = e.T, e.Seq
		if !e.Kind.Valid() {
			v.errf("event %d: invalid kind %d", i, e.Kind)
			continue
		}
		if e.Thread < 0 || int(e.Thread) >= len(tr.Threads) {
			v.errf("event %d: thread %d out of range", i, e.Thread)
			continue
		}
		st := &states[e.Thread]
		if e.Kind != EvThreadStart && !st.started {
			v.errf("event %d: thread %d has %s before thread-start", i, e.Thread, e.Kind)
		}
		if st.exited {
			v.errf("event %d: thread %d has %s after thread-exit", i, e.Thread, e.Kind)
		}

		switch e.Kind {
		case EvThreadStart:
			if st.started {
				v.errf("event %d: duplicate thread-start for thread %d", i, e.Thread)
			}
			st.started = true
			if e.Thread != 0 {
				creator := ThreadID(e.Arg)
				if creator < 0 || int(creator) >= len(tr.Threads) {
					v.errf("event %d: thread-start creator %d out of range", i, e.Arg)
				}
			}
		case EvThreadExit:
			st.exited = true
			for _, m := range st.with(stHeld) {
				v.errf("event %d: thread %d exits holding mutex %q", i, e.Thread, tr.ObjName(m))
			}
		case EvThreadCreate, EvJoinBegin, EvJoinEnd:
			target := ThreadID(e.Arg)
			if target < 0 || int(target) >= len(tr.Threads) {
				v.errf("event %d: %s target thread %d out of range", i, e.Kind, e.Arg)
			}
		case EvLockAcquire, EvLockObtain, EvLockRelease:
			kind, ok := objKind(e.Obj)
			if !ok || kind != ObjMutex {
				v.errf("event %d: %s on non-mutex object %d", i, e.Kind, e.Obj)
				continue
			}
			bits := st.objs[e.Obj]
			shared := uint8(0)
			if e.Arg&LockArgShared != 0 {
				shared = stHeldShared
			}
			switch e.Kind {
			case EvLockAcquire:
				if bits&stAcquiring != 0 {
					v.errf("event %d: thread %d double-acquire of %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				if bits&stHeld != 0 {
					v.errf("event %d: thread %d recursive acquire of %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.update(e.Obj, bits|stAcquiring)
			case EvLockObtain:
				if bits&stAcquiring == 0 {
					v.errf("event %d: thread %d obtain of %q without acquire", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.update(e.Obj, bits&^(stAcquiring|stHeldShared)|stHeld|shared)
			case EvLockRelease:
				if bits&stHeld == 0 {
					v.errf("event %d: thread %d releases %q it does not hold", i, e.Thread, tr.ObjName(e.Obj))
				} else if bits&stHeldShared != shared {
					v.errf("event %d: thread %d releases %q in the wrong mode", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.update(e.Obj, bits&^(stHeld|stHeldShared))
			}
		case EvBarrierArrive, EvBarrierDepart:
			kind, ok := objKind(e.Obj)
			if !ok || kind != ObjBarrier {
				v.errf("event %d: %s on non-barrier object %d", i, e.Kind, e.Obj)
				continue
			}
			bits := st.objs[e.Obj]
			if e.Kind == EvBarrierArrive {
				if bits&stInBarrier != 0 {
					v.errf("event %d: thread %d re-arrives at barrier %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.update(e.Obj, bits|stInBarrier)
			} else {
				if bits&stInBarrier == 0 {
					v.errf("event %d: thread %d departs barrier %q without arriving", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.update(e.Obj, bits&^stInBarrier)
			}
		case EvCondWaitBegin, EvCondWaitEnd, EvCondSignal, EvCondBroadcast:
			kind, ok := objKind(e.Obj)
			if !ok || kind != ObjCond {
				v.errf("event %d: %s on non-cond object %d", i, e.Kind, e.Obj)
				continue
			}
			switch bits := st.objs[e.Obj]; e.Kind {
			case EvCondWaitBegin:
				if bits&stInCondWait != 0 {
					v.errf("event %d: thread %d nested cond-wait on %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.update(e.Obj, bits|stInCondWait)
			case EvCondWaitEnd:
				if bits&stInCondWait == 0 {
					v.errf("event %d: thread %d cond-wait-end on %q without begin", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.update(e.Obj, bits&^stInCondWait)
			}
		case EvChanSendBegin, EvChanSend, EvChanRecvBegin, EvChanRecv, EvChanClose:
			kind, ok := objKind(e.Obj)
			if !ok || kind != ObjChan {
				v.errf("event %d: %s on non-chan object %d", i, e.Kind, e.Obj)
				continue
			}
			switch bits := st.objs[e.Obj]; e.Kind {
			case EvChanSendBegin:
				if bits&stSending != 0 {
					v.errf("event %d: thread %d nested send on %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.update(e.Obj, bits|stSending)
			case EvChanSend:
				if e.Arg&ChanArgSelect != 0 {
					if !st.inSelect {
						v.errf("event %d: thread %d select-chosen send on %q without select", i, e.Thread, tr.ObjName(e.Obj))
					}
					st.inSelect = false
				} else {
					if bits&stSending == 0 {
						v.errf("event %d: thread %d send on %q without begin", i, e.Thread, tr.ObjName(e.Obj))
					}
					st.update(e.Obj, bits&^stSending)
				}
			case EvChanRecvBegin:
				if bits&stReceiving != 0 {
					v.errf("event %d: thread %d nested recv on %q", i, e.Thread, tr.ObjName(e.Obj))
				}
				st.update(e.Obj, bits|stReceiving)
			case EvChanRecv:
				if e.Arg&ChanArgSelect != 0 {
					if !st.inSelect {
						v.errf("event %d: thread %d select-chosen recv on %q without select", i, e.Thread, tr.ObjName(e.Obj))
					}
					st.inSelect = false
				} else {
					if bits&stReceiving == 0 {
						v.errf("event %d: thread %d recv on %q without begin", i, e.Thread, tr.ObjName(e.Obj))
					}
					st.update(e.Obj, bits&^stReceiving)
				}
			case EvChanClose:
				if closedChans[e.Obj] {
					v.errf("event %d: channel %q closed twice", i, tr.ObjName(e.Obj))
				}
				closedChans[e.Obj] = true
			}
		case EvSelect:
			if e.Obj != NoObj {
				v.errf("event %d: select with object %d (want none)", i, e.Obj)
			}
			st.inSelect = true
		}
	}

	for id := range states {
		st := &states[id]
		if !st.started && !st.exited {
			// Thread registered but never ran: tolerated (e.g. snapshot
			// mid-run), but flag threads that started and never exited.
			continue
		}
		if st.started && !st.exited {
			v.errf("thread %d started but never exited", id)
		}
		for _, m := range st.with(stAcquiring) {
			v.errf("thread %d has unresolved acquire of %q", id, tr.ObjName(m))
		}
		for _, c := range st.with(stSending) {
			v.errf("thread %d has unresolved send on %q", id, tr.ObjName(c))
		}
		for _, c := range st.with(stReceiving) {
			v.errf("thread %d has unresolved recv on %q", id, tr.ObjName(c))
		}
	}
}

// CheckAgainstOracle is checkAgainstOracle for the external tests
// (package trace_test), which build traces with the simulator.
var CheckAgainstOracle = checkAgainstOracle

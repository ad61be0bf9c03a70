package trace

import (
	"errors"
	"fmt"
	"slices"
)

// ValidationError aggregates all problems found in a trace.
type ValidationError struct {
	Problems []string
}

// Error joins the first few problems into one message.
func (e *ValidationError) Error() string {
	const show = 5
	msg := fmt.Sprintf("trace: %d validation problem(s)", len(e.Problems))
	for i, p := range e.Problems {
		if i == show {
			msg += fmt.Sprintf("; ... and %d more", len(e.Problems)-show)
			break
		}
		msg += "; " + p
	}
	return msg
}

// Validate checks the structural well-formedness of a trace:
//
//   - events sorted by (T, Seq), with thread/object IDs in range;
//   - per thread: starts with thread-start, ends with thread-exit, and
//     no events outside that window;
//   - per (thread, mutex): acquire → obtain → release sequences, with
//     no release of a lock the thread does not hold;
//   - per (thread, barrier/cond): arrive/depart and wait-begin/wait-end
//     correctly bracketed;
//   - per (thread, chan): send/recv begin → completion sequences, with
//     select-chosen completions preceded by a select event, and no
//     channel closed twice;
//   - lock events reference mutex objects, barrier events barriers,
//     cond events condvars, channel events channels;
//   - thread-create/thread-start and join-begin/join-end reference
//     existing threads.
//
// A nil return means the trace can safely be fed to the analyzer.
func Validate(tr *Trace) error {
	v := newValidator(tr)
	for i := range tr.Events {
		e := &tr.Events[i]
		v.step(i, e.T, e.Seq, e.Thread, e.Kind, e.Obj, e.Arg)
	}
	v.finish()
	if len(v.problems) == 0 {
		return nil
	}
	return &ValidationError{Problems: v.problems}
}

// validator folds a trace's events one at a time, in trace order. Its
// state is dense and never grows with the number of events: one entry
// per thread, holding the few objects the thread is in the middle of
// using in an inline array (a map once more than inlineObjs are in use
// at once), and one entry per object.
type validator struct {
	tr       *Trace
	states   []threadState
	objs     []objState
	prevT    Time
	prevSeq  uint64
	problems []string
}

func newValidator(tr *Trace) *validator {
	v := &validator{
		tr:     tr,
		states: make([]threadState, len(tr.Threads)),
		objs:   make([]objState, len(tr.Objects)),
	}
	for i, o := range tr.Objects {
		v.objs[i].kind = o.Kind
	}
	return v
}

// objState is what the validator knows of one object.
type objState struct {
	kind   ObjKind
	closed bool // a channel that has been closed
}

func (v *validator) errf(format string, args ...any) {
	if len(v.problems) < 1000 { // cap memory on pathological traces
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// Per-(thread, object) state bits. An object has one kind, so the
// mutex, barrier, cond and channel bits never meet on one key.
const (
	stHeld       uint8 = 1 << iota // mutex held, between obtain and release
	stHeldShared                   // ...in shared (reader) mode
	stAcquiring                    // mutex between acquire and obtain
	stInBarrier                    // barrier between arrive and depart
	stInCondWait                   // cond between wait-begin and wait-end
	stSending                      // chan between send-begin and send
	stReceiving                    // chan between recv-begin and recv
)

// inlineObjs is how many objects a thread can be in the middle of
// using before its state moves from the inline array to a map. Real
// programs nest a few locks and channel operations; the map keeps a
// hostile trace (one thread holding 100k locks) linear instead of
// quadratic.
const inlineObjs = 8

// objBits is one object a thread is in the middle of using, with its
// nonzero state bits.
type objBits struct {
	id   ObjID
	bits uint8
}

type threadState struct {
	started bool
	exited  bool
	// inSelect is true between a select event and the completion of
	// its chosen case (a select resolved by default leaves it set; the
	// next select-chosen completion still needs a fresh select event,
	// which simply re-arms the flag).
	inSelect bool
	// inline[:n] holds the objects in use, unordered, until more than
	// inlineObjs are in use at once; from then on spill holds them for
	// the rest of the run.
	n      int
	inline [inlineObjs]objBits
	spill  map[ObjID]uint8
}

// bits returns obj's state bits, 0 if the thread is not using it.
func (st *threadState) bits(obj ObjID) uint8 {
	if st.spill != nil {
		return st.spill[obj]
	}
	for _, o := range st.inline[:st.n] {
		if o.id == obj {
			return o.bits
		}
	}
	return 0
}

// update replaces obj's state bits, dropping the entry once none are
// left.
func (st *threadState) update(obj ObjID, bits uint8) {
	if st.spill != nil {
		if bits == 0 {
			delete(st.spill, obj)
		} else {
			st.spill[obj] = bits
		}
		return
	}
	for i := range st.inline[:st.n] {
		if st.inline[i].id != obj {
			continue
		}
		if bits == 0 {
			st.n--
			st.inline[i] = st.inline[st.n]
		} else {
			st.inline[i].bits = bits
		}
		return
	}
	switch {
	case bits == 0:
	case st.n < inlineObjs:
		st.inline[st.n] = objBits{obj, bits}
		st.n++
	default:
		st.spill = make(map[ObjID]uint8, 2*inlineObjs)
		for _, o := range st.inline {
			st.spill[o.id] = o.bits
		}
		st.spill[obj] = bits
		st.n = 0
	}
}

// with lists the objects that have bit set, in ID order, so problems
// about leftover state read the same on every run.
func (st *threadState) with(bit uint8) []ObjID {
	var ids []ObjID
	if st.spill != nil {
		for id, bits := range st.spill {
			if bits&bit != 0 {
				ids = append(ids, id)
			}
		}
	} else {
		for _, o := range st.inline[:st.n] {
			if o.bits&bit != 0 {
				ids = append(ids, o.id)
			}
		}
	}
	slices.Sort(ids)
	return ids
}

// is reports whether id is an object of the given kind.
func (v *validator) is(id ObjID, kind ObjKind) bool {
	return uint(id) < uint(len(v.objs)) && v.objs[id].kind == kind
}

// step checks event i, given by its fields.
func (v *validator) step(i int, t Time, seq uint64, thread ThreadID, kind EventKind, obj ObjID, arg int64) {
	tr := v.tr
	if i > 0 && (t < v.prevT || (t == v.prevT && seq <= v.prevSeq)) {
		v.errf("event %d out of order (t=%d seq=%d after t=%d seq=%d)", i, t, seq, v.prevT, v.prevSeq)
	}
	v.prevT, v.prevSeq = t, seq
	if !kind.Valid() {
		v.errf("event %d: invalid kind %d", i, kind)
		return
	}
	if thread < 0 || int(thread) >= len(v.states) {
		v.errf("event %d: thread %d out of range", i, thread)
		return
	}
	st := &v.states[thread]
	if kind != EvThreadStart && !st.started {
		v.errf("event %d: thread %d has %s before thread-start", i, thread, kind)
	}
	if st.exited {
		v.errf("event %d: thread %d has %s after thread-exit", i, thread, kind)
	}

	switch kind {
	case EvThreadStart:
		if st.started {
			v.errf("event %d: duplicate thread-start for thread %d", i, thread)
		}
		st.started = true
		if thread != 0 {
			creator := ThreadID(arg)
			if creator < 0 || int(creator) >= len(v.states) {
				v.errf("event %d: thread-start creator %d out of range", i, arg)
			}
		}
	case EvThreadExit:
		st.exited = true
		for _, m := range st.with(stHeld) {
			v.errf("event %d: thread %d exits holding mutex %q", i, thread, tr.ObjName(m))
		}
	case EvThreadCreate, EvJoinBegin, EvJoinEnd:
		target := ThreadID(arg)
		if target < 0 || int(target) >= len(v.states) {
			v.errf("event %d: %s target thread %d out of range", i, kind, arg)
		}
	case EvLockAcquire, EvLockObtain, EvLockRelease:
		if !v.is(obj, ObjMutex) {
			v.errf("event %d: %s on non-mutex object %d", i, kind, obj)
			return
		}
		bits := st.bits(obj)
		shared := uint8(0)
		if arg&LockArgShared != 0 {
			shared = stHeldShared
		}
		switch kind {
		case EvLockAcquire:
			if bits&stAcquiring != 0 {
				v.errf("event %d: thread %d double-acquire of %q", i, thread, tr.ObjName(obj))
			}
			if bits&stHeld != 0 {
				v.errf("event %d: thread %d recursive acquire of %q", i, thread, tr.ObjName(obj))
			}
			st.update(obj, bits|stAcquiring)
		case EvLockObtain:
			if bits&stAcquiring == 0 {
				v.errf("event %d: thread %d obtain of %q without acquire", i, thread, tr.ObjName(obj))
			}
			st.update(obj, bits&^(stAcquiring|stHeldShared)|stHeld|shared)
		case EvLockRelease:
			if bits&stHeld == 0 {
				v.errf("event %d: thread %d releases %q it does not hold", i, thread, tr.ObjName(obj))
			} else if bits&stHeldShared != shared {
				v.errf("event %d: thread %d releases %q in the wrong mode", i, thread, tr.ObjName(obj))
			}
			st.update(obj, bits&^(stHeld|stHeldShared))
		}
	case EvBarrierArrive, EvBarrierDepart:
		if !v.is(obj, ObjBarrier) {
			v.errf("event %d: %s on non-barrier object %d", i, kind, obj)
			return
		}
		bits := st.bits(obj)
		if kind == EvBarrierArrive {
			if bits&stInBarrier != 0 {
				v.errf("event %d: thread %d re-arrives at barrier %q", i, thread, tr.ObjName(obj))
			}
			st.update(obj, bits|stInBarrier)
		} else {
			if bits&stInBarrier == 0 {
				v.errf("event %d: thread %d departs barrier %q without arriving", i, thread, tr.ObjName(obj))
			}
			st.update(obj, bits&^stInBarrier)
		}
	case EvCondWaitBegin, EvCondWaitEnd, EvCondSignal, EvCondBroadcast:
		if !v.is(obj, ObjCond) {
			v.errf("event %d: %s on non-cond object %d", i, kind, obj)
			return
		}
		switch bits := st.bits(obj); kind {
		case EvCondWaitBegin:
			if bits&stInCondWait != 0 {
				v.errf("event %d: thread %d nested cond-wait on %q", i, thread, tr.ObjName(obj))
			}
			st.update(obj, bits|stInCondWait)
		case EvCondWaitEnd:
			if bits&stInCondWait == 0 {
				v.errf("event %d: thread %d cond-wait-end on %q without begin", i, thread, tr.ObjName(obj))
			}
			st.update(obj, bits&^stInCondWait)
		}
	case EvChanSendBegin, EvChanSend, EvChanRecvBegin, EvChanRecv, EvChanClose:
		if !v.is(obj, ObjChan) {
			v.errf("event %d: %s on non-chan object %d", i, kind, obj)
			return
		}
		switch bits := st.bits(obj); kind {
		case EvChanSendBegin:
			if bits&stSending != 0 {
				v.errf("event %d: thread %d nested send on %q", i, thread, tr.ObjName(obj))
			}
			st.update(obj, bits|stSending)
		case EvChanSend:
			if arg&ChanArgSelect != 0 {
				if !st.inSelect {
					v.errf("event %d: thread %d select-chosen send on %q without select", i, thread, tr.ObjName(obj))
				}
				st.inSelect = false
			} else {
				if bits&stSending == 0 {
					v.errf("event %d: thread %d send on %q without begin", i, thread, tr.ObjName(obj))
				}
				st.update(obj, bits&^stSending)
			}
		case EvChanRecvBegin:
			if bits&stReceiving != 0 {
				v.errf("event %d: thread %d nested recv on %q", i, thread, tr.ObjName(obj))
			}
			st.update(obj, bits|stReceiving)
		case EvChanRecv:
			if arg&ChanArgSelect != 0 {
				if !st.inSelect {
					v.errf("event %d: thread %d select-chosen recv on %q without select", i, thread, tr.ObjName(obj))
				}
				st.inSelect = false
			} else {
				if bits&stReceiving == 0 {
					v.errf("event %d: thread %d recv on %q without begin", i, thread, tr.ObjName(obj))
				}
				st.update(obj, bits&^stReceiving)
			}
		case EvChanClose:
			if v.objs[obj].closed {
				v.errf("event %d: channel %q closed twice", i, tr.ObjName(obj))
			}
			v.objs[obj].closed = true
		}
	case EvSelect:
		if obj != NoObj {
			v.errf("event %d: select with object %d (want none)", i, obj)
		}
		st.inSelect = true
	}
}

// finish reports the state left over once every event is stepped.
func (v *validator) finish() {
	tr := v.tr
	for id := range v.states {
		st := &v.states[id]
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

// ErrEmptyTrace is returned by analyses on traces with no events.
var ErrEmptyTrace = errors.New("trace: empty trace")

package trace

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func validTrace() *Trace { return buildSampleTrace() }

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := Validate(validTrace()); err != nil {
		t.Fatalf("Validate(valid) = %v", err)
	}
}

func mustInvalid(t *testing.T, tr *Trace, wantSubstr string) {
	t.Helper()
	err := Validate(tr)
	if err == nil {
		t.Fatalf("Validate accepted trace, want error containing %q", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("Validate error = %v, want substring %q", err, wantSubstr)
	}
}

func TestValidateOutOfOrder(t *testing.T) {
	tr := validTrace()
	tr.Events[0], tr.Events[1] = tr.Events[1], tr.Events[0]
	mustInvalid(t, tr, "out of order")
}

func TestValidateReleaseWithoutHold(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	m := b.Mutex("L1")
	b.Start(0, main)
	b.Event(5, main, EvLockRelease, m, 0)
	b.Exit(10, main)
	mustInvalid(t, b.Trace(), "does not hold")
}

func TestValidateObtainWithoutAcquire(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	m := b.Mutex("L1")
	b.Start(0, main)
	b.Event(5, main, EvLockObtain, m, 0)
	b.Event(6, main, EvLockRelease, m, 0)
	b.Exit(10, main)
	mustInvalid(t, b.Trace(), "without acquire")
}

func TestValidateExitHoldingLock(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	m := b.Mutex("L1")
	b.Start(0, main)
	b.Event(5, main, EvLockAcquire, m, 0)
	b.Event(5, main, EvLockObtain, m, 0)
	b.Exit(10, main)
	mustInvalid(t, b.Trace(), "exits holding")
}

func TestValidateEventBeforeStart(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	m := b.Mutex("L1")
	b.CS(main, m, 0, 0, 1)
	b.Start(2, main)
	b.Exit(10, main)
	mustInvalid(t, b.Trace(), "before thread-start")
}

func TestValidateEventAfterExit(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	b.Start(0, main)
	b.Exit(5, main)
	b.Event(6, main, EvThreadCreate, NoObj, 0)
	mustInvalid(t, b.Trace(), "after thread-exit")
}

func TestValidateNeverExits(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	b.Start(0, main)
	mustInvalid(t, b.Trace(), "never exited")
}

func TestValidateLockOnBarrier(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	bar := b.Barrier("bar", 2)
	b.Start(0, main)
	b.CS(main, bar, 1, 1, 2)
	b.Exit(3, main)
	mustInvalid(t, b.Trace(), "non-mutex")
}

func TestValidateBarrierOnMutex(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	m := b.Mutex("L1")
	b.Start(0, main)
	b.BarrierWait(main, m, 1, 2, true)
	b.Exit(3, main)
	mustInvalid(t, b.Trace(), "non-barrier")
}

func TestValidateCondOnMutex(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	m := b.Mutex("L1")
	b.Start(0, main)
	b.Event(1, main, EvCondSignal, m, 0)
	b.Exit(3, main)
	mustInvalid(t, b.Trace(), "non-cond")
}

func TestValidateDepartWithoutArrive(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	bar := b.Barrier("bar", 1)
	b.Start(0, main)
	b.Event(1, main, EvBarrierDepart, bar, 1)
	b.Exit(3, main)
	mustInvalid(t, b.Trace(), "without arriving")
}

func TestValidateWaitEndWithoutBegin(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	cv := b.Cond("cv")
	b.Start(0, main)
	b.Event(1, main, EvCondWaitEnd, cv, 0)
	b.Exit(3, main)
	mustInvalid(t, b.Trace(), "without begin")
}

func TestValidateBadJoinTarget(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	b.Start(0, main)
	b.Join(main, 42, 1, 2)
	b.Exit(3, main)
	mustInvalid(t, b.Trace(), "out of range")
}

func TestValidateRecursiveAcquire(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	m := b.Mutex("L1")
	b.Start(0, main)
	b.Event(1, main, EvLockAcquire, m, 0)
	b.Event(1, main, EvLockObtain, m, 0)
	b.Event(2, main, EvLockAcquire, m, 0)
	b.Event(2, main, EvLockObtain, m, 0)
	b.Event(3, main, EvLockRelease, m, 0)
	b.Event(4, main, EvLockRelease, m, 0)
	b.Exit(5, main)
	mustInvalid(t, b.Trace(), "recursive")
}

func TestValidationErrorMessageCapped(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	m := b.Mutex("L1")
	b.Start(0, main)
	for i := Time(1); i <= 10; i++ {
		b.Event(i, main, EvLockRelease, m, 0)
	}
	b.Exit(20, main)
	err := Validate(b.Trace())
	if err == nil {
		t.Fatal("expected error")
	}
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type %T, want *ValidationError", err)
	}
	if len(ve.Problems) != 10 {
		t.Errorf("got %d problems, want 10", len(ve.Problems))
	}
	if !strings.Contains(err.Error(), "and 5 more") {
		t.Errorf("message not truncated: %v", err)
	}
}

func TestValidateSharedHolds(t *testing.T) {
	// Two threads read-holding simultaneously is legal.
	b := NewBuilder()
	t1 := b.Thread("t1", NoThread)
	t2 := b.Thread("t2", t1)
	m := b.Mutex("rw")
	b.Start(0, t1)
	b.Start(0, t2)
	b.SharedCS(t1, m, 1, 1, 10)
	b.SharedCS(t2, m, 2, 2, 8)
	b.Exit(20, t1)
	b.Exit(20, t2)
	if err := Validate(b.Trace()); err != nil {
		t.Fatalf("concurrent shared holds rejected: %v", err)
	}
}

func TestValidateWrongModeRelease(t *testing.T) {
	b := NewBuilder()
	t1 := b.Thread("t1", NoThread)
	m := b.Mutex("rw")
	b.Start(0, t1)
	b.Event(1, t1, EvLockAcquire, m, LockArgShared)
	b.Event(1, t1, EvLockObtain, m, LockArgShared)
	b.Event(5, t1, EvLockRelease, m, 0) // exclusive release of a shared hold
	b.Exit(10, t1)
	mustInvalid(t, b.Trace(), "wrong mode")
}

func TestSharedEventAccessors(t *testing.T) {
	e := Event{Kind: EvLockObtain, Arg: LockArgShared | LockArgContended}
	if !e.Shared() || !e.Contended() {
		t.Errorf("shared contended obtain misread: shared=%v contended=%v", e.Shared(), e.Contended())
	}
	e = Event{Kind: EvLockObtain, Arg: LockArgShared}
	if e.Contended() {
		t.Error("shared uncontended obtain reported contended")
	}
	e = Event{Kind: EvBarrierArrive, Arg: LockArgShared}
	if e.Shared() {
		t.Error("non-lock event reported shared")
	}
}

// TestValidateProblemsDeterministic: leftover per-thread state is
// reported in object-ID order (held mutexes at exit; then unresolved
// acquires, sends and receives), so one trace always yields the same
// ValidationError text.
func TestValidateProblemsDeterministic(t *testing.T) {
	b := NewBuilder()
	t0 := b.Thread("t0", NoThread)
	t1 := b.Thread("t1", t0)
	var ms, cs []ObjID
	for i := 0; i < 4; i++ {
		ms = append(ms, b.Mutex(fmt.Sprintf("m%d", i)))
		cs = append(cs, b.Chan(fmt.Sprintf("c%d", i), 0))
	}
	b.Start(0, t0)
	b.Start(0, t1)
	// t0 takes the mutexes in reverse ID order and exits holding them.
	for i := len(ms) - 1; i >= 0; i-- {
		b.Event(1, t0, EvLockAcquire, ms[i], 0)
		b.Event(1, t0, EvLockObtain, ms[i], 0)
	}
	b.Exit(10, t0)
	// t1 leaves acquires, sends and receives unresolved.
	for i := len(ms) - 1; i >= 0; i-- {
		b.Event(2, t1, EvLockAcquire, ms[i], 0)
		b.Event(3, t1, EvChanSendBegin, cs[i], 0)
		b.Event(4, t1, EvChanRecvBegin, cs[i], 0)
	}
	b.Exit(10, t1)
	tr := b.Trace()

	want := []string{
		`event 23: thread 0 exits holding mutex "m0"`,
		`event 23: thread 0 exits holding mutex "m1"`,
		`event 23: thread 0 exits holding mutex "m2"`,
		`event 23: thread 0 exits holding mutex "m3"`,
		`thread 1 has unresolved acquire of "m0"`,
		`thread 1 has unresolved acquire of "m1"`,
		`thread 1 has unresolved acquire of "m2"`,
		`thread 1 has unresolved acquire of "m3"`,
		`thread 1 has unresolved send on "c0"`,
		`thread 1 has unresolved send on "c1"`,
		`thread 1 has unresolved send on "c2"`,
		`thread 1 has unresolved send on "c3"`,
		`thread 1 has unresolved recv on "c0"`,
		`thread 1 has unresolved recv on "c1"`,
		`thread 1 has unresolved recv on "c2"`,
		`thread 1 has unresolved recv on "c3"`,
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		err := Validate(tr)
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("Validate = %v, want *ValidationError", err)
		}
		seen[err.Error()] = true
		var got []string
		for _, p := range ve.Problems {
			if strings.Contains(p, "exits holding") || strings.Contains(p, "unresolved") {
				got = append(got, p)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: leftover-state problems\n got %q\nwant %q", i, got, want)
		}
	}
	if len(seen) != 1 {
		t.Errorf("50 runs gave %d distinct error strings: %v", len(seen), seen)
	}
}

// checkAgainstOracle requires Validate and the map-based oracle to
// agree on tr: both nil, or the same problems (Error() renders the
// problem list, so the error text matches too).
func checkAgainstOracle(t testing.TB, tr *Trace) {
	t.Helper()
	got, want := Validate(tr), validateWithMaps(tr)
	if (got == nil) != (want == nil) {
		t.Fatalf("Validate = %v, oracle = %v", got, want)
	}
	if got == nil {
		return
	}
	var g, w *ValidationError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		t.Fatalf("Validate = %T, oracle = %T, want *ValidationError", got, want)
	}
	if !reflect.DeepEqual(g.Problems, w.Problems) {
		t.Fatalf("Validate and the oracle disagree:\n got %q\nwant %q", g.Problems, w.Problems)
	}
}

// Soup traces: FuzzValidate decodes its input four bytes per event into
// a trace with soupThreads threads (thread 0 the root) and soupPerKind
// objects of each kind (IDs 0.. mutexes, then barriers, conds and
// channels; one ID past the end and NoObj are also reachable).
//
//	byte 0: thread (low 2 bits; 3 is out of range), then ΔT (6 bits;
//	        63 steps the clock back by one)
//	byte 1: kind mod evKindMax+1 (0 and evKindMax are invalid)
//	byte 2: object ID + 1, mod 4·soupPerKind + 2
//	byte 3: Arg (low 3 bits; the high bit makes it -1 - Arg)
const (
	soupThreads = 3
	soupPerKind = 12
)

func soupTrace(data []byte) *Trace {
	tr := &Trace{Meta: map[string]string{}}
	for i := 0; i < soupThreads; i++ {
		creator := ThreadID(0)
		if i == 0 {
			creator = NoThread
		}
		tr.Threads = append(tr.Threads, ThreadInfo{ID: ThreadID(i), Name: fmt.Sprintf("t%d", i), Creator: creator})
	}
	for k, kind := range []ObjKind{ObjMutex, ObjBarrier, ObjCond, ObjChan} {
		for j := 0; j < soupPerKind; j++ {
			name := fmt.Sprintf("%s%d", []string{"m", "b", "cv", "ch"}[k], j)
			tr.Objects = append(tr.Objects, ObjectInfo{ID: ObjID(len(tr.Objects)), Kind: kind, Name: name, Parties: 2})
		}
	}
	var tm Time
	for i := 0; i+4 <= len(data); i += 4 {
		b := data[i : i+4]
		if dt := b[0] >> 2; dt == 63 {
			tm--
		} else {
			tm += Time(dt)
		}
		arg := int64(b[3] & 7)
		if b[3]&0x80 != 0 {
			arg = -1 - arg
		}
		tr.Events = append(tr.Events, Event{
			T:      tm,
			Seq:    uint64(i/4 + 1),
			Thread: ThreadID(b[0] & 3),
			Kind:   EventKind(b[1] % uint8(evKindMax+1)),
			Obj:    ObjID(int(b[2])%(4*soupPerKind+2)) - 1,
			Arg:    arg,
		})
	}
	return tr
}

// soupEv is one event of a soup seed; back steps the clock back.
type soupEv struct {
	th   int
	kind EventKind
	obj  ObjID
	arg  int64
	back bool
}

// soup encodes events in soupTrace's format, one tick apart.
func soup(evs ...soupEv) []byte {
	var out []byte
	for _, e := range evs {
		b0 := byte(e.th) | 1<<2
		if e.back {
			b0 = byte(e.th) | 63<<2
		}
		b3 := byte(e.arg)
		if e.arg < 0 {
			b3 = 0x80 | byte(-1-e.arg)
		}
		out = append(out, b0, byte(e.kind), byte(e.obj+1), b3)
	}
	return out
}

// Soup object IDs by kind.
func soupMutex(i int) ObjID   { return ObjID(i) }
func soupBarrier(i int) ObjID { return ObjID(soupPerKind + i) }
func soupCond(i int) ObjID    { return ObjID(2*soupPerKind + i) }
func soupChan(i int) ObjID    { return ObjID(3*soupPerKind + i) }

type validateSeed struct {
	name string
	want string // a substring of one problem; "" = well-formed
	evs  []soupEv
}

// validateSeeds returns one soup per problem class Validate reports,
// plus a well-formed soup, the map fallback and the problem cap.
func validateSeeds() []validateSeed {
	ev := func(th int, kind EventKind, obj ObjID, arg int64) soupEv {
		return soupEv{th: th, kind: kind, obj: obj, arg: arg}
	}
	start := func(th int) soupEv { return ev(th, EvThreadStart, NoObj, 0) }
	exit := func(th int) soupEv { return ev(th, EvThreadExit, NoObj, 0) }
	lock := func(th int, m ObjID, arg int64) []soupEv {
		return []soupEv{ev(th, EvLockAcquire, m, arg), ev(th, EvLockObtain, m, arg)}
	}
	run := func(th int, body ...soupEv) []soupEv {
		return append(append([]soupEv{start(th)}, body...), exit(th))
	}
	cat := func(parts ...[]soupEv) []soupEv {
		var out []soupEv
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	m, bar, cv, ch := soupMutex(0), soupBarrier(0), soupCond(0), soupChan(0)

	seeds := []validateSeed{
		{"well-formed", "", cat(
			[]soupEv{start(0), ev(0, EvThreadCreate, NoObj, 1), ev(1, EvThreadStart, NoObj, 0)},
			lock(0, m, 0), []soupEv{ev(0, EvLockRelease, m, 0)},
			lock(1, m, LockArgShared), []soupEv{ev(1, EvLockRelease, m, LockArgShared)},
			[]soupEv{ev(0, EvChanSendBegin, ch, 0), ev(1, EvChanRecvBegin, ch, 0), ev(0, EvChanSend, ch, 0), ev(1, EvChanRecv, ch, 0)},
			[]soupEv{ev(1, EvSelect, NoObj, 0), ev(1, EvChanRecv, ch, ChanArgSelect), ev(0, EvChanClose, ch, 0)},
			[]soupEv{ev(1, EvCondWaitBegin, cv, 0), ev(0, EvCondSignal, cv, 0), ev(1, EvCondWaitEnd, cv, 0)},
			[]soupEv{ev(0, EvBarrierArrive, bar, 0), ev(1, EvBarrierArrive, bar, 0), ev(0, EvBarrierDepart, bar, 0), ev(1, EvBarrierDepart, bar, 1)},
			[]soupEv{exit(1), ev(0, EvJoinBegin, NoObj, 1), ev(0, EvJoinEnd, NoObj, 1), exit(0)},
		)},
		{"out-of-order", "out of order", []soupEv{start(0), ev(0, EvThreadCreate, NoObj, 1), {th: 0, kind: EvThreadExit, obj: NoObj, back: true}}},
		{"invalid-kind", "invalid kind", run(0, ev(0, 0, NoObj, 0))},
		{"thread-range", "thread 3 out of range", run(0, ev(3, EvThreadCreate, NoObj, 1))},
		{"before-start", "before thread-start", []soupEv{ev(0, EvThreadCreate, NoObj, 1), start(0), exit(0)}},
		{"after-exit", "after thread-exit", append(run(0), ev(0, EvThreadCreate, NoObj, 1))},
		{"duplicate-start", "duplicate thread-start", run(0, start(0))},
		{"creator-range", "creator 5 out of range", append(run(0), ev(1, EvThreadStart, NoObj, 5), exit(1))},
		{"exit-holding", "exits holding mutex", run(0, lock(0, m, 0)...)},
		{"target-range", "target thread 7 out of range", run(0, ev(0, EvJoinBegin, NoObj, 7))},
		{"non-mutex", "on non-mutex object", run(0, ev(0, EvLockAcquire, bar, 0))},
		{"double-acquire", "double-acquire", run(0, ev(0, EvLockAcquire, m, 0), ev(0, EvLockAcquire, m, 0))},
		{"recursive", "recursive acquire", run(0, cat(lock(0, m, 0), lock(0, m, 0))...)},
		{"obtain-without-acquire", "without acquire", run(0, ev(0, EvLockObtain, m, 0))},
		{"release-not-held", "it does not hold", run(0, ev(0, EvLockRelease, m, 0))},
		{"wrong-mode", "wrong mode", run(0, append(lock(0, m, LockArgShared), ev(0, EvLockRelease, m, 0))...)},
		{"non-barrier", "on non-barrier object", run(0, ev(0, EvBarrierArrive, m, 0))},
		{"re-arrive", "re-arrives", run(0, ev(0, EvBarrierArrive, bar, 0), ev(0, EvBarrierArrive, bar, 0))},
		{"depart-without-arrive", "without arriving", run(0, ev(0, EvBarrierDepart, bar, 0))},
		{"non-cond", "on non-cond object", run(0, ev(0, EvCondSignal, ch, 0))},
		{"nested-wait", "nested cond-wait", run(0, ev(0, EvCondWaitBegin, cv, 0), ev(0, EvCondWaitBegin, cv, 0))},
		{"wait-end-without-begin", "cond-wait-end on", run(0, ev(0, EvCondWaitEnd, cv, 0))},
		{"non-chan", "on non-chan object", run(0, ev(0, EvChanClose, soupChan(soupPerKind), 0))},
		{"nested-send", "nested send", run(0, ev(0, EvChanSendBegin, ch, 0), ev(0, EvChanSendBegin, ch, 0))},
		{"select-send", "select-chosen send", run(0, ev(0, EvChanSend, ch, ChanArgSelect))},
		{"send-without-begin", "send on \"ch0\" without begin", run(0, ev(0, EvChanSend, ch, 0))},
		{"nested-recv", "nested recv", run(0, ev(0, EvChanRecvBegin, ch, 0), ev(0, EvChanRecvBegin, ch, 0))},
		{"select-recv", "select-chosen recv", run(0, ev(0, EvChanRecv, ch, ChanArgSelect))},
		{"recv-without-begin", "recv on \"ch0\" without begin", run(0, ev(0, EvChanRecv, ch, 0))},
		{"closed-twice", "closed twice", run(0, ev(0, EvChanClose, ch, 0), ev(0, EvChanClose, ch, 0))},
		{"select-object", "select with object", run(0, ev(0, EvSelect, ch, 0))},
		{"never-exited", "never exited", []soupEv{start(0)}},
		{"unresolved-acquire", "unresolved acquire", run(0, ev(0, EvLockAcquire, m, 0))},
		{"unresolved-send", "unresolved send", run(0, ev(0, EvChanSendBegin, ch, 0))},
		{"unresolved-recv", "unresolved recv", run(0, ev(0, EvChanRecvBegin, ch, 0))},
	}

	// Map fallback: thread 0 takes every mutex plus a barrier, a cond
	// wait and a channel operation, drops back to a few, takes some
	// again and exits holding them; a release of a lock it no longer
	// holds is flagged on the way.
	var fb []soupEv
	for i := 0; i < soupPerKind; i++ {
		fb = append(fb, lock(0, soupMutex(i), 0)...)
	}
	fb = append(fb, ev(0, EvBarrierArrive, bar, 0), ev(0, EvChanRecvBegin, ch, 0))
	for i := 0; i < soupPerKind-3; i++ {
		fb = append(fb, ev(0, EvLockRelease, soupMutex(i), 0))
	}
	fb = append(fb, ev(0, EvLockRelease, soupMutex(0), 0), ev(0, EvBarrierDepart, bar, 0))
	fb = append(fb, lock(0, soupMutex(4), 0)...)
	seeds = append(seeds, validateSeed{"map-fallback", "exits holding mutex \"m4\"", run(0, fb...)})

	// The problem cap: 1,001 releases of a lock never held.
	over := make([]soupEv, 1001)
	for i := range over {
		over[i] = ev(0, EvLockRelease, m, 0)
	}
	seeds = append(seeds, validateSeed{"cap", "1000 validation problem(s)", run(0, over...)})
	return seeds
}

// TestValidateSeeds checks that every FuzzValidate seed shows the
// problem it is named for, and that Validate and the oracle agree on
// it.
func TestValidateSeeds(t *testing.T) {
	for _, s := range validateSeeds() {
		t.Run(s.name, func(t *testing.T) {
			tr := soupTrace(soup(s.evs...))
			if len(tr.Events) != len(s.evs) {
				t.Fatalf("soup decoded to %d events, want %d", len(tr.Events), len(s.evs))
			}
			checkAgainstOracle(t, tr)
			err := Validate(tr)
			if s.want == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("Validate = %v, want a problem containing %q", err, s.want)
			}
			if !strings.Contains(err.Error(), s.want) && !slices.ContainsFunc(ve.Problems, func(p string) bool {
				return strings.Contains(p, s.want)
			}) {
				t.Fatalf("no problem contains %q: %q", s.want, ve.Problems)
			}
		})
	}
}

// TestValidateSpillsToMap steps a thread past inlineObjs objects in
// use: the ninth moves its state to the map, and once it releases back
// to eight or fewer it still reports exactly what the oracle reports.
func TestValidateSpillsToMap(t *testing.T) {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	var ms []ObjID
	for i := 0; i < inlineObjs+1; i++ {
		ms = append(ms, b.Mutex(fmt.Sprintf("m%d", i)))
	}
	tr := b.Trace()
	v := newValidator(tr)
	step := func(kind EventKind, obj ObjID) {
		i := len(tr.Events)
		tr.Events = append(tr.Events, Event{T: Time(i), Seq: uint64(i + 1), Thread: main, Kind: kind, Obj: obj})
		v.step(i, Time(i), uint64(i+1), main, kind, obj, 0)
	}
	st := &v.states[main]
	step(EvThreadStart, NoObj)
	for _, m := range ms[:inlineObjs] {
		step(EvLockAcquire, m)
		step(EvLockObtain, m)
	}
	if st.spill != nil || st.n != inlineObjs {
		t.Fatalf("with %d objects in use: spill=%v n=%d, want inline and n=%d", inlineObjs, st.spill, st.n, inlineObjs)
	}
	step(EvLockAcquire, ms[inlineObjs])
	if st.spill == nil || len(st.spill) != inlineObjs+1 {
		t.Fatalf("the ninth object in use left the thread inline (spill=%v)", st.spill)
	}
	step(EvLockObtain, ms[inlineObjs])
	for _, m := range ms[:5] {
		step(EvLockRelease, m)
	}
	step(EvLockRelease, ms[0]) // no longer held
	step(EvLockAcquire, ms[6]) // recursive
	step(EvLockRelease, ms[8]) // m5, m6 and m7 stay held
	step(EvLockAcquire, ms[1]) // unresolved at the end
	step(EvThreadExit, NoObj)
	v.finish()

	want := []string{
		`event 24: thread 0 releases "m0" it does not hold`,
		`event 25: thread 0 recursive acquire of "m6"`,
		`event 28: thread 0 exits holding mutex "m5"`,
		`event 28: thread 0 exits holding mutex "m6"`,
		`event 28: thread 0 exits holding mutex "m7"`,
		`thread 0 has unresolved acquire of "m1"`,
		`thread 0 has unresolved acquire of "m6"`,
	}
	if !reflect.DeepEqual(v.problems, want) {
		t.Fatalf("problems\n got %q\nwant %q", v.problems, want)
	}

	checkAgainstOracle(t, tr)
}

// TestValidateManyHeldLocks: one thread obtains 200k distinct mutexes
// and exits holding them. Its state lives in the map fallback, so the
// run stays linear (an inline scan over every held lock would be
// quadratic and blow the test timeout), and the capped problem list
// matches the oracle's.
func TestValidateManyHeldLocks(t *testing.T) {
	const locks = 200_000
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	b.Start(0, main)
	for i := 0; i < locks; i++ {
		m := b.Mutex(fmt.Sprintf("m%d", i))
		b.Event(Time(i+1), main, EvLockAcquire, m, 0)
		b.Event(Time(i+1), main, EvLockObtain, m, 0)
	}
	b.Exit(locks+1, main)
	tr := b.Trace()
	checkAgainstOracle(t, tr)
	var ve *ValidationError
	if err := Validate(tr); !errors.As(err, &ve) || len(ve.Problems) != 1000 {
		t.Fatalf("Validate = %v, want 1000 problems", err)
	}
	if want := fmt.Sprintf(`event %d: thread 0 exits holding mutex "m0"`, 2*locks+1); ve.Problems[0] != want {
		t.Errorf("first problem %q, want %q", ve.Problems[0], want)
	}
}

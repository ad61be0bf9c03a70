package trace

import (
	"errors"
	"fmt"
	"reflect"
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

package core

import (
	"errors"
	"math"
	"testing"

	"critlock/internal/trace"
)

// fig1Trace reconstructs the paper's Fig. 1 illustrative execution: a
// 33-unit critical path where lock L2 guards four 3-unit hot critical
// sections (36.36% of the path, 75% contended on it), L1 guards one
// 1-unit hot critical section (3.03%, uncontended), L3 is an
// uncontended critical lock, and L4 — the lock with the longest idle
// time, which prior idleness-based methods would flag — is entirely
// off the critical path.
func fig1Trace() *trace.Trace {
	b := trace.NewBuilder()
	t1 := b.Thread("T1", trace.NoThread)
	t2 := b.Thread("T2", t1)
	t3 := b.Thread("T3", t1)
	t4 := b.Thread("T4", t1)
	l1 := b.Mutex("L1")
	l2 := b.Mutex("L2")
	l3 := b.Mutex("L3")
	l4 := b.Mutex("L4")

	b.Start(0, t1)
	b.Start(0, t2)
	b.Start(0, t3)
	b.Start(0, t4)

	// T1: CS1 under L1, then the first CS2 under L2.
	b.CS(t1, l1, 2, 2, 3)
	b.CS(t1, l2, 8, 8, 11)
	b.Exit(14, t1)

	// T2: contended CS2.
	b.CS(t2, l2, 9, 11, 14)
	b.Exit(20, t2)

	// T3: long CS4 under L4 (blocking T4), then contended CS2.
	b.CS(t3, l4, 4, 4, 13)
	b.CS(t3, l2, 13, 14, 17)
	b.Exit(20, t3)

	// T4: blocks 8 units on L4 (the longest idle time in the run),
	// then contended CS2, then uncontended CS3 under L3, then a long
	// tail of computation. T4 finishes last and anchors the walk.
	b.CS(t4, l4, 5, 13, 14)
	b.CS(t4, l2, 16, 17, 20)
	b.CS(t4, l3, 20, 20, 24)
	b.Exit(33, t4)

	return b.Trace()
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("%s = %.4f, want %.4f", name, got, want)
	}
}

func TestFig1CriticalPath(t *testing.T) {
	tr := fig1Trace()
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("fig1 trace invalid: %v", err)
	}
	an, err := AnalyzeDefault(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	if an.CP.Length != 33 {
		t.Errorf("CP length = %d, want 33", an.CP.Length)
	}
	if an.CP.WaitTime != 0 {
		t.Errorf("CP wait time = %d, want 0", an.CP.WaitTime)
	}
	if an.CP.LastThread != 3 {
		t.Errorf("last thread = %d, want 3 (T4)", an.CP.LastThread)
	}
	if an.CP.Jumps != 3 {
		t.Errorf("jumps = %d, want 3 (the L2 chain)", an.CP.Jumps)
	}
	approx(t, "coverage", an.CP.Coverage(), 1.0)

	l2 := an.Lock("L2")
	if l2 == nil {
		t.Fatal("no stats for L2")
	}
	if !l2.Critical {
		t.Error("L2 not marked critical")
	}
	if l2.HoldOnCP != 12 {
		t.Errorf("L2 hold on CP = %d, want 12", l2.HoldOnCP)
	}
	approx(t, "L2 CP time %", l2.CPTimePct, 100*12.0/33.0) // 36.36% as in the paper
	if l2.InvocationsOnCP != 4 {
		t.Errorf("L2 invocations on CP = %d, want 4", l2.InvocationsOnCP)
	}
	approx(t, "L2 cont prob on CP", l2.ContProbOnCP, 75.0) // 3 of 4, as in the paper

	l1 := an.Lock("L1")
	if !l1.Critical || l1.HoldOnCP != 1 {
		t.Errorf("L1: critical=%v holdOnCP=%d, want true/1", l1.Critical, l1.HoldOnCP)
	}
	approx(t, "L1 CP time %", l1.CPTimePct, 100*1.0/33.0) // 3.03%
	approx(t, "L1 cont prob on CP", l1.ContProbOnCP, 0)

	l3 := an.Lock("L3")
	if !l3.Critical || l3.HoldOnCP != 4 {
		t.Errorf("L3: critical=%v holdOnCP=%d, want true/4 (uncontended critical lock)", l3.Critical, l3.HoldOnCP)
	}
	if l3.ContendedOnCP != 0 {
		t.Errorf("L3 contended on CP = %d, want 0", l3.ContendedOnCP)
	}

	l4 := an.Lock("L4")
	if l4.Critical {
		t.Error("L4 marked critical although it is off the critical path")
	}
	if l4.MaxWait != 8 {
		t.Errorf("L4 max wait = %d, want 8 (longest idle time in the run)", l4.MaxWait)
	}
	if l4.TotalWait <= l2.TotalWait {
		t.Errorf("L4 total wait %d not above L2's %d: the misleading-idleness setup broke", l4.TotalWait, l2.TotalWait)
	}

	// The paper's headline: idleness ranks L4 first, critical lock
	// analysis ranks L2 first.
	if an.Locks[0].Name != "L2" {
		t.Errorf("top lock by CP time = %s, want L2", an.Locks[0].Name)
	}
	byWait := an.Locks[0]
	for _, l := range an.Locks {
		if l.TotalWait > byWait.TotalWait {
			byWait = l
		}
	}
	if byWait.Name != "L4" {
		t.Errorf("top lock by idleness = %s, want L4", byWait.Name)
	}
}

func TestFig1ThreadStats(t *testing.T) {
	an, err := AnalyzeDefault(fig1Trace())
	if err != nil {
		t.Fatal(err)
	}
	if got := an.Threads[3].Lifetime; got != 33 {
		t.Errorf("T4 lifetime = %d, want 33", got)
	}
	if got := an.Threads[3].TimeOnCP; got != 16 {
		t.Errorf("T4 time on CP = %d, want 16", got)
	}
	if got := an.Threads[0].TimeOnCP; got != 11 {
		t.Errorf("T1 time on CP = %d, want 11", got)
	}
	if got := an.Threads[3].LockWait; got != 9 { // 8 on L4 + 1 on L2
		t.Errorf("T4 lock wait = %d, want 9", got)
	}
	if an.Totals.Invocations != 8 {
		t.Errorf("total invocations = %d, want 8", an.Totals.Invocations)
	}
	if an.Totals.Mutexes != 4 {
		t.Errorf("mutexes = %d, want 4", an.Totals.Mutexes)
	}
}

// TestSingleThread checks the degenerate case: one thread, everything
// on the critical path.
func TestSingleThread(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	m := b.Mutex("only")
	b.Start(0, main)
	b.CS(main, m, 10, 10, 25)
	b.Exit(100, main)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if an.CP.Length != 100 {
		t.Errorf("CP length = %d, want 100", an.CP.Length)
	}
	l := an.Lock("only")
	if !l.Critical || l.HoldOnCP != 15 {
		t.Errorf("lock: critical=%v hold=%d, want true/15", l.Critical, l.HoldOnCP)
	}
	approx(t, "CP time %", l.CPTimePct, 15.0)
	if l.ContProbOnCP != 0 || l.AvgContProb != 0 {
		t.Error("uncontended lock reported contention")
	}
}

// TestBarrierWalk: the critical path must run through the last arriver
// of a barrier, not through the threads that waited.
func TestBarrierWalk(t *testing.T) {
	b := trace.NewBuilder()
	t0 := b.Thread("fast", trace.NoThread)
	t1 := b.Thread("slow", t0)
	bar := b.Barrier("phase", 2)
	b.Start(0, t0)
	b.Start(0, t1)
	// Fast thread arrives at 10, departs when slow arrives at 50.
	b.BarrierWait(t0, bar, 10, 50, false)
	b.BarrierWait(t1, bar, 50, 50, true)
	b.Exit(80, t0) // fast thread finishes last after the barrier
	b.Exit(60, t1)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	// Path: t0 [50,80] + jump to t1's arrive → t1 [0,50] = 80, with no
	// barrier wait on it.
	if an.CP.Length != 80 {
		t.Errorf("CP length = %d, want 80", an.CP.Length)
	}
	if an.CP.WaitTime != 0 {
		t.Errorf("CP wait = %d, want 0 (wait must be jumped over)", an.CP.WaitTime)
	}
	if an.CP.Jumps == 0 {
		t.Error("no jumps: walk did not follow the barrier dependency")
	}
	if got := an.Threads[1].TimeOnCP; got != 50 {
		t.Errorf("slow thread time on CP = %d, want 50", got)
	}
	if got := an.Threads[0].BarrierWait; got != 40 {
		t.Errorf("fast thread barrier wait = %d, want 40", got)
	}
	if got := an.Threads[1].BarrierWait; got != 0 {
		t.Errorf("slow (last) thread barrier wait = %d, want 0", got)
	}
}

// TestCondWalk: a thread blocked on a condition variable depends on
// its signaller.
func TestCondWalk(t *testing.T) {
	b := trace.NewBuilder()
	prod := b.Thread("producer", trace.NoThread)
	cons := b.Thread("consumer", prod)
	cv := b.Cond("nonempty")
	m := b.Mutex("qmu")
	b.Start(0, prod)
	b.Start(0, cons)
	// Consumer waits from 5; producer computes until 40 and signals.
	b.CS(cons, m, 5, 5, 5) // lock around wait entry (released at wait)
	b.Event(5, cons, trace.EvCondWaitBegin, cv, int64(m))
	b.Event(40, prod, trace.EvCondSignal, cv, 0)
	b.Event(40, cons, trace.EvCondWaitEnd, cv, int64(m))
	b.Exit(45, prod)
	b.Exit(70, cons)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	// Path: cons [40,70] + jump to producer's signal → prod [0,40].
	if an.CP.Length != 70 {
		t.Errorf("CP length = %d, want 70", an.CP.Length)
	}
	if an.CP.WaitTime != 0 {
		t.Errorf("CP wait = %d, want 0", an.CP.WaitTime)
	}
	if got := an.Threads[0].TimeOnCP; got != 40 {
		t.Errorf("producer time on CP = %d, want 40", got)
	}
	if got := an.Threads[1].CondWait; got != 35 {
		t.Errorf("consumer cond wait = %d, want 35", got)
	}
}

// TestBroadcastWalk: all waiters woken by one broadcast depend on the
// broadcaster.
func TestBroadcastWalk(t *testing.T) {
	b := trace.NewBuilder()
	boss := b.Thread("boss", trace.NoThread)
	w1 := b.Thread("w1", boss)
	w2 := b.Thread("w2", boss)
	cv := b.Cond("go")
	b.Start(0, boss)
	b.Start(0, w1)
	b.Start(0, w2)
	b.Event(1, w1, trace.EvCondWaitBegin, cv, -1)
	b.Event(2, w2, trace.EvCondWaitBegin, cv, -1)
	b.Event(30, boss, trace.EvCondBroadcast, cv, 0)
	b.Event(30, w1, trace.EvCondWaitEnd, cv, -1)
	b.Event(30, w2, trace.EvCondWaitEnd, cv, -1)
	b.Exit(35, boss)
	b.Exit(50, w1)
	b.Exit(90, w2)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	// Path: w2 [30,90] + boss [0,30].
	if an.CP.Length != 90 {
		t.Errorf("CP length = %d, want 90", an.CP.Length)
	}
	if got := an.Threads[0].TimeOnCP; got != 30 {
		t.Errorf("boss time on CP = %d, want 30", got)
	}
}

// TestJoinWalk: a joiner blocked on a child depends on the child's
// exit; an already-exited child does not redirect the path.
func TestJoinWalk(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	kid := b.Thread("kid", main)
	b.Start(0, main)
	b.Start(0, kid)
	b.Exit(60, kid)
	b.Join(main, kid, 10, 60)
	b.Exit(75, main)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	// Path: main [60,75] + kid [0,60] = 75.
	if an.CP.Length != 75 {
		t.Errorf("CP length = %d, want 75", an.CP.Length)
	}
	if got := an.Threads[1].TimeOnCP; got != 60 {
		t.Errorf("kid time on CP = %d, want 60", got)
	}
	if got := an.Threads[0].JoinWait; got != 50 {
		t.Errorf("main join wait = %d, want 50", got)
	}
}

func TestJoinAlreadyExited(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	kid := b.Thread("kid", main)
	b.Start(0, main)
	b.Start(0, kid)
	b.Exit(5, kid)
	b.Join(main, kid, 30, 30) // join returns immediately
	b.Exit(50, main)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	// The whole path stays on main: [0,50].
	if an.CP.Length != 50 {
		t.Errorf("CP length = %d, want 50", an.CP.Length)
	}
	if got := an.Threads[0].TimeOnCP; got != 50 {
		t.Errorf("main time on CP = %d, want 50", got)
	}
	if got := an.Threads[0].JoinWait; got != 0 {
		t.Errorf("join wait = %d, want 0", got)
	}
}

// TestThreadStartDependency: a late-created thread that finishes last
// pulls the path through its creator's prefix.
func TestThreadStartDependency(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	late := b.Thread("late", main)
	b.Start(0, main)
	b.Start(40, late) // created at 40 (Builder emits create on main)
	b.Exit(45, main)
	b.Exit(100, late)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	// Path: late [40,100] + main [0,40] = 100.
	if an.CP.Length != 100 {
		t.Errorf("CP length = %d, want 100", an.CP.Length)
	}
	if got := an.Threads[0].TimeOnCP; got != 40 {
		t.Errorf("main time on CP = %d, want 40", got)
	}
}

// TestUnknownWakerBecomesWaitPiece: a contended obtain whose releaser
// is absent from the trace (e.g. truncated) keeps the wait on the
// path, classified as PieceWait.
func TestUnknownWakerBecomesWaitPiece(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	m := b.Mutex("ghost")
	b.Start(0, main)
	// Contended obtain (obt > acq) but no prior holder in the trace.
	b.CS(main, m, 10, 30, 40)
	b.Exit(50, main)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if an.CP.Length != 50 {
		t.Errorf("CP length = %d, want 50", an.CP.Length)
	}
	if an.CP.WaitTime != 20 {
		t.Errorf("CP wait = %d, want 20", an.CP.WaitTime)
	}
	if an.CP.ExecTime != 30 {
		t.Errorf("CP exec = %d, want 30", an.CP.ExecTime)
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	if _, err := AnalyzeDefault(&trace.Trace{}); err == nil {
		t.Error("Analyze accepted empty trace")
	}
	if _, err := AnalyzeDefault(nil); err == nil {
		t.Error("Analyze accepted nil trace")
	}
}

// TestAnalyzerRejectsEmpty: TraceSource rejects nil and empty traces
// with ErrEmptyTrace before any pass runs.
func TestAnalyzerRejectsEmpty(t *testing.T) {
	for _, tr := range []*trace.Trace{nil, {}} {
		if _, err := AnalyzeSource(TraceSource(tr), DefaultConfig()); err != trace.ErrEmptyTrace {
			t.Errorf("TraceSource(%v) = %v, want ErrEmptyTrace", tr, err)
		}
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	m := b.Mutex("L")
	b.Start(0, main)
	b.Event(1, main, trace.EvLockRelease, m, 0)
	b.Exit(2, main)
	_, err := AnalyzeDefault(b.Trace())
	var verr *trace.ValidationError
	if !errors.As(err, &verr) {
		t.Errorf("Analyze(invalid) = %v, want a *trace.ValidationError", err)
	}
	// The passes themselves, which segmented traces reach without
	// validation, must still reject it rather than panic.
	if _, err := AnalyzeStream(TraceSegments(b.Trace()), DefaultConfig()); err == nil {
		t.Error("AnalyzeStream accepted unpaired release")
	}
}

// TestLockChainDifferentThreads: the L2-style convoy where each obtain
// jumps to the previous holder, hopping across three threads.
func TestLockChainAcrossThreads(t *testing.T) {
	b := trace.NewBuilder()
	a := b.Thread("A", trace.NoThread)
	c := b.Thread("B", a)
	d := b.Thread("C", a)
	m := b.Mutex("conv")
	b.Start(0, a)
	b.Start(0, c)
	b.Start(0, d)
	b.CS(a, m, 0, 0, 10)
	b.CS(c, m, 1, 10, 20)
	b.CS(d, m, 2, 20, 30)
	b.Exit(12, a)
	b.Exit(22, c)
	b.Exit(31, d)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	// Path: C [20,31], jump→B [10,20], jump→A [0,10] = 31.
	if an.CP.Length != 31 {
		t.Errorf("CP length = %d, want 31", an.CP.Length)
	}
	l := an.Lock("conv")
	if l.InvocationsOnCP != 3 || l.HoldOnCP != 30 {
		t.Errorf("conv: inv on CP=%d hold=%d, want 3/30", l.InvocationsOnCP, l.HoldOnCP)
	}
	approx(t, "conv cont prob on CP", l.ContProbOnCP, 100.0*2/3)
}

// TestCondReacquireRouting: when a signalled thread must re-acquire a
// contended mutex, the binding dependency is the mutex releaser (later
// than the signal); the walk must route through it without losing
// time.
func TestCondReacquireRouting(t *testing.T) {
	b := trace.NewBuilder()
	waiter := b.Thread("waiter", trace.NoThread)
	signaler := b.Thread("signaler", waiter)
	holder := b.Thread("holder", waiter)
	cv := b.Cond("cv")
	m := b.Mutex("m")
	b.Start(0, waiter)
	b.Start(0, signaler)
	b.Start(0, holder)

	// Waiter: lock m at 0, wait on cv (releases m at 5).
	b.Event(0, waiter, trace.EvLockAcquire, m, 0)
	b.Event(0, waiter, trace.EvLockObtain, m, 0)
	b.Event(5, waiter, trace.EvCondWaitBegin, cv, int64(m))
	b.Event(5, waiter, trace.EvLockRelease, m, 0)
	// Holder grabs m 5..40.
	b.CS(holder, m, 5, 5, 40)
	b.Exit(41, holder)
	// Signal arrives at 20, but the waiter can only re-acquire m when
	// the holder releases at 40.
	b.Event(20, signaler, trace.EvCondSignal, cv, 0)
	b.Exit(25, signaler)
	b.Event(20, waiter, trace.EvLockAcquire, m, 0)
	b.Event(40, waiter, trace.EvLockObtain, m, trace.LockArgContended)
	b.Event(40, waiter, trace.EvCondWaitEnd, cv, int64(m))
	b.Event(45, waiter, trace.EvLockRelease, m, 0)
	b.Exit(60, waiter)

	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	// Path: waiter [40,60] ← jump via the OBTAIN (not the signal) to
	// holder's release@40 ← holder [0,40] (its own obtain at 5 was
	// uncontended, so the walk stays on the holder's prefix). Total
	// 60, gap-free.
	if an.CP.Length != 60 {
		t.Errorf("CP length = %d, want 60 (routing through the mutex releaser)", an.CP.Length)
	}
	if an.CP.WaitTime != 0 {
		t.Errorf("CP wait = %d, want 0", an.CP.WaitTime)
	}
	if got := an.Threads[2].TimeOnCP; got != 40 {
		t.Errorf("holder time on CP = %d, want 40", got)
	}
	if got := an.Threads[0].TimeOnCP; got != 20 {
		t.Errorf("waiter time on CP = %d, want 20", got)
	}
	// The signaler's prefix is NOT on the path (its signal was not the
	// binding dependency).
	if got := an.Threads[1].TimeOnCP; got != 0 {
		t.Errorf("signaler time on CP = %d, want 0", got)
	}
}

// TestJumpLog: the fig1 walk's jump chain, in forward order.
func TestJumpLog(t *testing.T) {
	an, err := AnalyzeDefault(fig1Trace())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(an.CP.JumpLog); got != 3 {
		t.Fatalf("jump log = %+v, want 3 entries", an.CP.JumpLog)
	}
	// Forward order: T2←T1 at 11, T3←T2 at 14, T4←T3 at 17 — all via L2.
	wantFrom := []trace.ThreadID{1, 2, 3}
	wantT := []trace.Time{11, 14, 17}
	for i, j := range an.CP.JumpLog {
		if j.Kind != JumpLock {
			t.Errorf("jump %d kind = %v, want lock", i, j.Kind)
		}
		if j.From != wantFrom[i] || j.T != wantT[i] {
			t.Errorf("jump %d = %+v, want from=%d t=%d", i, j, wantFrom[i], wantT[i])
		}
		if an.Trace.ObjName(j.Obj) != "L2" {
			t.Errorf("jump %d through %s, want L2", i, an.Trace.ObjName(j.Obj))
		}
	}
	for _, k := range []JumpKind{JumpLock, JumpBarrier, JumpCond, JumpJoin, JumpStart, JumpKind(99)} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

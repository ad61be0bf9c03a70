package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"critlock/internal/trace"
)

func TestAccessors(t *testing.T) {
	an, err := AnalyzeDefault(fig1Trace())
	if err != nil {
		t.Fatal(err)
	}
	if an.Lock("nope") != nil {
		t.Error("Lock(nope) != nil")
	}
	crit := an.CriticalLocks()
	if len(crit) != 3 { // L1, L2, L3
		t.Fatalf("critical locks = %d, want 3", len(crit))
	}
	for _, l := range crit {
		if !l.Critical {
			t.Errorf("CriticalLocks returned non-critical %s", l.Name)
		}
		if l.Name == "L4" {
			t.Error("L4 in critical set")
		}
	}
	top := an.TopLocks(2)
	if len(top) != 2 || top[0].Name != "L2" {
		t.Errorf("TopLocks(2) = %v", top)
	}
	if got := an.TopLocks(100); len(got) != 4 {
		t.Errorf("TopLocks(100) returned %d locks, want 4", len(got))
	}
}

// TestIncreaseFactors checks the paper's "Incr. Times" columns: a
// convoyed lock appears far more often on the critical path than the
// per-thread average.
func TestIncreaseFactors(t *testing.T) {
	an, err := AnalyzeDefault(fig1Trace())
	if err != nil {
		t.Fatal(err)
	}
	l2 := an.Lock("L2")
	// 4 invocations on the CP, 4 invocations / 4 threads = 1 average:
	// a 4x increase, exactly the Fig. 1 discussion in the paper.
	approx(t, "L2 invocation increase", l2.InvIncrease, 4.0)
	if l2.SizeIncrease <= 1 {
		t.Errorf("L2 size increase = %.2f, want > 1", l2.SizeIncrease)
	}
	l4 := an.Lock("L4")
	if l4.InvIncrease != 0 {
		t.Errorf("off-path L4 invocation increase = %.2f, want 0", l4.InvIncrease)
	}
}

// TestClippingAblation compares clipped vs full-hold accounting: with
// clipping off, an invocation that merely touches the path is credited
// with its entire hold time, inflating CP Time.
func TestClippingAblation(t *testing.T) {
	b := trace.NewBuilder()
	a := b.Thread("A", trace.NoThread)
	c := b.Thread("B", a)
	m := b.Mutex("edge")
	l := b.Mutex("lateblock")
	b.Start(0, a)
	b.Start(0, c)
	// A holds "edge" from 0 to 80; B blocks on "lateblock" held by A
	// from 40, so the walk jumps into A's release at 50 and only
	// [0,50] of A is walked; edge's hold is clipped to 50 of 80.
	b.Event(0, a, trace.EvLockAcquire, m, 0)
	b.Event(0, a, trace.EvLockObtain, m, 0)
	b.CS(a, l, 10, 10, 50)
	b.Event(80, a, trace.EvLockRelease, m, 0)
	b.Exit(85, a)
	b.CS(c, l, 40, 50, 55)
	b.Exit(100, c)
	tr := b.Trace()

	clipped, err := Analyze(tr, Options{ClipHold: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Analyze(tr, Options{ClipHold: false})
	if err != nil {
		t.Fatal(err)
	}
	ec, ef := clipped.Lock("edge"), full.Lock("edge")
	if ec.HoldOnCP != 50 {
		t.Errorf("clipped hold = %d, want 50", ec.HoldOnCP)
	}
	if ef.HoldOnCP != 80 {
		t.Errorf("full hold = %d, want 80", ef.HoldOnCP)
	}
	if ef.CPTimePct <= ec.CPTimePct {
		t.Error("full accounting did not inflate CP time")
	}
}

// TestWaitTimePct verifies the TYPE 2 percentage definition: average
// over threads of per-thread wait fraction.
func TestWaitTimePct(t *testing.T) {
	b := trace.NewBuilder()
	a := b.Thread("A", trace.NoThread)
	c := b.Thread("B", a)
	m := b.Mutex("m")
	b.Start(0, a)
	b.Start(0, c)
	b.CS(a, m, 0, 0, 50)  // A holds 50 of its 100-unit lifetime
	b.CS(c, m, 0, 50, 60) // B waits 50 of its 100-unit lifetime
	b.Exit(100, a)
	b.Exit(100, c)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	l := an.Lock("m")
	approx(t, "wait time %", l.WaitTimePct, 25.0)        // (0% + 50%) / 2
	approx(t, "avg hold time %", l.AvgHoldTimePct, 30.0) // (50% + 10%) / 2
	approx(t, "avg cont prob", l.AvgContProb, 50.0)
	approx(t, "avg invocations", l.AvgInvPerThread, 1.0)
	if l.MaxHold != 50 || l.MaxWait != 50 {
		t.Errorf("max hold/wait = %d/%d, want 50/50", l.MaxHold, l.MaxWait)
	}
}

// TestPropertySerializedChain: for a randomly generated serial convoy
// on one lock, the whole hold chain must be on the critical path and
// CP length must equal the last exit time.
func TestPropertySerializedChain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		b := trace.NewBuilder()
		root := b.Thread("T0", trace.NoThread)
		threads := []trace.ThreadID{root}
		for i := 1; i < n; i++ {
			threads = append(threads, b.Thread("", root))
		}
		m := b.Mutex("chain")
		for _, th := range threads {
			b.Start(0, th)
		}
		// Everyone requests at time 0; thread i holds during
		// [r_{i-1}, r_i), so all but the first are contended.
		rel := trace.Time(0)
		var lastRel trace.Time
		for _, th := range threads {
			hold := trace.Time(1 + rng.Intn(20))
			obt := rel
			rel = obt + hold
			b.CS(th, m, 0, obt, rel)
			lastRel = rel
		}
		for _, th := range threads {
			b.Exit(lastRel+1, th)
		}
		an, err := AnalyzeDefault(b.Trace())
		if err != nil {
			return false
		}
		l := an.Lock("chain")
		if l.InvocationsOnCP != n {
			return false
		}
		if an.CP.Coverage() > 1.0001 {
			return false
		}
		// All invocations but the first are contended, on and off CP.
		return l.TotalContended == n-1 && l.ContendedOnCP == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCPLengthBounds: on arbitrary fork-join computations the
// walked critical path is at least as long as any single thread's
// lifetime share on it and never exceeds wall time by more than
// rounding.
func TestPropertyCPBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := trace.NewBuilder()
		main := b.Thread("main", trace.NoThread)
		b.Start(0, main)
		n := 1 + rng.Intn(6)
		var kids []trace.ThreadID
		var exits []trace.Time
		for i := 0; i < n; i++ {
			kid := b.Thread("", main)
			kids = append(kids, kid)
			start := trace.Time(rng.Intn(10))
			b.Start(start, kid)
			end := start + trace.Time(1+rng.Intn(100))
			b.Exit(end, kid)
			exits = append(exits, end)
		}
		// Main joins all children in order.
		tm := trace.Time(10)
		for i, kid := range kids {
			end := exits[i]
			if end < tm {
				end = tm
			}
			b.Join(main, kid, tm, end)
			tm = end
		}
		b.Exit(tm+5, main)
		an, err := AnalyzeDefault(b.Trace())
		if err != nil {
			return false
		}
		if an.CP.Length <= 0 {
			return false
		}
		return an.CP.Length <= an.CP.WallTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestZeroLengthCriticalSection: point CSes inside a walked piece
// count as invocations on the CP without adding hold time.
func TestZeroLengthCriticalSection(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	m := b.Mutex("pt")
	b.Start(0, main)
	b.CS(main, m, 50, 50, 50)
	b.Exit(100, main)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	l := an.Lock("pt")
	if !l.Critical || l.InvocationsOnCP != 1 {
		t.Errorf("point CS: critical=%v invOnCP=%d, want true/1", l.Critical, l.InvocationsOnCP)
	}
	if l.HoldOnCP != 0 {
		t.Errorf("point CS hold on CP = %d, want 0", l.HoldOnCP)
	}
}

// TestUnusedMutexListed: registered but never-locked mutexes appear in
// the report with zero stats (the paper's tables list every lock).
func TestUnusedMutexListed(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	b.Mutex("never")
	b.Start(0, main)
	b.Exit(10, main)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	l := an.Lock("never")
	if l == nil {
		t.Fatal("unused mutex missing from stats")
	}
	if l.Critical || l.TotalInvocations != 0 {
		t.Errorf("unused mutex has stats: %+v", l)
	}
}

package core

import (
	"testing"

	"critlock/internal/trace"
)

func TestCompositionFig1(t *testing.T) {
	an, err := AnalyzeDefault(fig1Trace())
	if err != nil {
		t.Fatal(err)
	}
	c := an.Composition()
	if c.Total != 33 {
		t.Errorf("total = %d, want 33", c.Total)
	}
	// Hot CS time on the path: CS1(1) + 4×CS2(3) + CS3(4) = 17.
	if c.LockHold != 17 {
		t.Errorf("lock hold = %d, want 17", c.LockHold)
	}
	if c.Compute != 16 {
		t.Errorf("compute = %d, want 16", c.Compute)
	}
	if c.Wait != 0 {
		t.Errorf("wait = %d, want 0", c.Wait)
	}
	approx(t, "lock hold pct", c.LockHoldPct(), 100*17.0/33.0)
}

// TestCompositionNestedNoDoubleCount: overlapping (nested) holds must
// count once.
func TestCompositionNestedHolds(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	outer := b.Mutex("outer")
	inner := b.Mutex("inner")
	b.Start(0, main)
	b.Event(10, main, trace.EvLockAcquire, outer, 0)
	b.Event(10, main, trace.EvLockObtain, outer, 0)
	b.CS(main, inner, 20, 20, 40) // nested inside outer's 10..60
	b.Event(60, main, trace.EvLockRelease, outer, 0)
	b.Exit(100, main)
	an, err := AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	c := an.Composition()
	if c.LockHold != 50 { // outer's 10..60, inner fully inside
		t.Errorf("lock hold = %d, want 50 (no double counting)", c.LockHold)
	}
	if c.Compute != 50 {
		t.Errorf("compute = %d, want 50", c.Compute)
	}
}

func TestWindowsFig1(t *testing.T) {
	an, err := AnalyzeDefault(fig1Trace())
	if err != nil {
		t.Fatal(err)
	}
	wins := an.Windows(3)
	if len(wins) != 3 {
		t.Fatalf("got %d windows", len(wins))
	}
	// Window boundaries tile [0, 33].
	if wins[0].From != 0 || wins[2].To != 33 {
		t.Errorf("bounds: [%d..%d] .. [%d..%d]", wins[0].From, wins[0].To, wins[2].From, wins[2].To)
	}
	// Path time per window sums to the full path.
	var sum trace.Time
	for _, w := range wins {
		sum += w.PathTime
	}
	if sum != an.CP.Length {
		t.Errorf("window path time sums to %d, want %d", sum, an.CP.Length)
	}
	// Early window: L1 era; middle: L2 convoy; final window dominated
	// by L3/compute. The L2 convoy runs 8..20, so window 1 (11..22)
	// must be topped by L2.
	if top := wins[1].Top(); top.Name != "L2" {
		t.Errorf("middle window top = %s, want L2", top.Name)
	}
	// The last window (22..33) contains CS3's tail (20..24 clipped to
	// 22..24 = 2 units of L3) and no L2.
	for _, wl := range wins[2].Locks {
		if wl.Name == "L2" {
			t.Errorf("L2 present in final window: %+v", wl)
		}
	}
}

func TestWindowsDegenerate(t *testing.T) {
	an, err := AnalyzeDefault(fig1Trace())
	if err != nil {
		t.Fatal(err)
	}
	if got := an.Windows(0); got != nil {
		t.Errorf("Windows(0) = %v", got)
	}
	if got := an.Windows(-3); got != nil {
		t.Errorf("Windows(-3) = %v", got)
	}
	// One window reproduces the whole-run shares.
	w := an.Windows(1)
	if len(w) != 1 || w[0].PathTime != an.CP.Length {
		t.Fatalf("Windows(1) = %+v", w)
	}
	if w[0].Top().Name != "L2" {
		t.Errorf("whole-run top = %s, want L2", w[0].Top().Name)
	}
	empty := Window{}
	if empty.Top().Name != "<none>" {
		t.Errorf("empty window top = %q", empty.Top().Name)
	}
}

func TestIntervalHelpers(t *testing.T) {
	merged := mergeIntervals([]interval{{5, 10}, {1, 3}, {9, 12}, {3, 4}})
	want := []interval{{1, 4}, {5, 12}}
	if len(merged) != len(want) {
		t.Fatalf("merged = %v", merged)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Errorf("merged[%d] = %v, want %v", i, merged[i], want[i])
		}
	}
	if got := intersectLen([]interval{{0, 10}, {20, 30}}, []interval{{5, 25}}); got != 10 {
		t.Errorf("intersectLen = %d, want 10", got)
	}
	if got := clipToWindow([]interval{{0, 10}, {20, 30}}, 5, 25); got != 10 {
		t.Errorf("clipToWindow = %d, want 10", got)
	}
}

func TestCompare(t *testing.T) {
	// Before: single lock dominating. After: split into two smaller
	// locks (the rename-split pattern of the paper's optimization).
	mk := func(split bool) (*Analysis, trace.Time) {
		b := trace.NewBuilder()
		t1 := b.Thread("t1", trace.NoThread)
		t2 := b.Thread("t2", t1)
		b.Start(0, t1)
		b.Start(0, t2)
		var end trace.Time
		if !split {
			m := b.Mutex("qlock")
			b.CS(t1, m, 0, 0, 50)
			b.CS(t2, m, 1, 50, 100)
			end = 100
		} else {
			h := b.Mutex("q_head_lock")
			tl := b.Mutex("q_tail_lock")
			b.CS(t1, h, 0, 0, 50)
			b.CS(t2, tl, 1, 1, 51)
			end = 51
		}
		b.Exit(end, t1)
		b.Exit(end, t2)
		an, err := AnalyzeDefault(b.Trace())
		if err != nil {
			t.Fatal(err)
		}
		return an, end
	}
	before, bt := mk(false)
	after, at := mk(true)
	cmp := Compare(before, after, bt, at)
	if cmp.Speedup < 1.9 || cmp.Speedup > 2.0 {
		t.Errorf("speedup = %.2f, want ≈1.96", cmp.Speedup)
	}
	if cmp.ImprovementPct < 48 || cmp.ImprovementPct > 50 {
		t.Errorf("improvement = %.1f%%", cmp.ImprovementPct)
	}
	byName := map[string]LockDelta{}
	for _, d := range cmp.Locks {
		byName[d.Name] = d
	}
	if d := byName["qlock"]; !d.InBefore || d.InAfter || d.CPTimeDelta >= 0 {
		t.Errorf("qlock delta = %+v, want removed with negative delta", d)
	}
	if d := byName["q_head_lock"]; d.InBefore || !d.InAfter {
		t.Errorf("q_head_lock delta = %+v, want new", d)
	}
	if cmp.TopMover().Name != "qlock" {
		t.Errorf("top mover = %s, want qlock", cmp.TopMover().Name)
	}
}

func TestCompareEmpty(t *testing.T) {
	cmp := Compare(&Analysis{}, &Analysis{}, 0, 0)
	if cmp.TopMover().Name != "<none>" {
		t.Errorf("empty top mover = %q", cmp.TopMover().Name)
	}
}

func TestPhases(t *testing.T) {
	an, err := AnalyzeDefault(fig1Trace())
	if err != nil {
		t.Fatal(err)
	}
	phases := an.Phases(11) // 3-unit windows over the 33-unit run (core fig1 uses unit timestamps)
	if len(phases) < 2 {
		t.Fatalf("phases = %+v, want several", phases)
	}
	// Phases tile the run.
	if phases[0].From != 0 || phases[len(phases)-1].To != 33 {
		t.Errorf("phase bounds: %+v", phases)
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].From != phases[i-1].To {
			t.Errorf("gap between phases %d and %d", i-1, i)
		}
		if phases[i].Top == phases[i-1].Top {
			t.Errorf("adjacent phases %d/%d share top %q (not merged)", i-1, i, phases[i].Top)
		}
	}
	// The L2 convoy (8..20) must appear as an L2-dominated phase.
	foundL2 := false
	for _, p := range phases {
		if p.Top == "L2" && p.TopPct > 50 {
			foundL2 = true
		}
	}
	if !foundL2 {
		t.Errorf("no L2-dominated phase found: %+v", phases)
	}
	if got := an.Phases(0); got != nil {
		t.Errorf("Phases(0) = %v", got)
	}
}

package hazard

import (
	"reflect"
	"testing"

	"critlock/internal/core"
	"critlock/internal/trace"
)

// lockOrderOf is LockOrderOf over an in-memory trace.
func lockOrderOf(t *testing.T, tr *trace.Trace) *LockOrder {
	t.Helper()
	lo, err := LockOrderOf(core.TraceSegments(tr))
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

func TestLockOrderGraph(t *testing.T) {
	// Thread 1: A then nested B. Thread 2: B then nested A → cycle.
	b := trace.NewBuilder()
	t1 := b.Thread("t1", trace.NoThread)
	t2 := b.Thread("t2", t1)
	a := b.Mutex("A")
	bb := b.Mutex("B")
	c := b.Mutex("C")
	b.Start(0, t1)
	b.Start(0, t2)
	// t1: A[1..10] containing B[2..5], then C alone.
	b.Event(1, t1, trace.EvLockAcquire, a, 0)
	b.Event(1, t1, trace.EvLockObtain, a, 0)
	b.CS(t1, bb, 2, 2, 5)
	b.Event(10, t1, trace.EvLockRelease, a, 0)
	b.CS(t1, c, 11, 11, 12)
	b.Exit(20, t1)
	// t2: B[30..40] containing A[32..35] (inverted order).
	b.Event(30, t2, trace.EvLockAcquire, bb, 0)
	b.Event(30, t2, trace.EvLockObtain, bb, 0)
	b.CS(t2, a, 32, 32, 35)
	b.Event(40, t2, trace.EvLockRelease, bb, 0)
	b.Exit(50, t2)

	lo := lockOrderOf(t, b.Trace())
	if len(lo.Edges) != 2 {
		t.Fatalf("edges = %+v, want 2", lo.Edges)
	}
	if lo.Edges[0].FromName != "A" || lo.Edges[0].ToName != "B" || lo.Edges[0].Count != 1 {
		t.Errorf("edge[0] = %+v", lo.Edges[0])
	}
	if !lo.HasCycle() {
		t.Fatal("A↔B inversion not detected")
	}
	names := lo.CycleNames()
	if len(names) != 1 || len(names[0]) != 2 || names[0][0] != "A" || names[0][1] != "B" {
		t.Errorf("cycles = %v", names)
	}
}

func TestLockOrderNoCycle(t *testing.T) {
	// Consistent A→B ordering on two threads: no cycle.
	b := trace.NewBuilder()
	t1 := b.Thread("t1", trace.NoThread)
	a := b.Mutex("A")
	bb := b.Mutex("B")
	b.Start(0, t1)
	b.Event(1, t1, trace.EvLockAcquire, a, 0)
	b.Event(1, t1, trace.EvLockObtain, a, 0)
	b.CS(t1, bb, 2, 2, 5)
	b.Event(10, t1, trace.EvLockRelease, a, 0)
	b.Exit(20, t1)
	lo := lockOrderOf(t, b.Trace())
	if lo.HasCycle() {
		t.Errorf("false cycle: %v", lo.CycleNames())
	}
	if len(lo.Edges) != 1 {
		t.Errorf("edges = %+v", lo.Edges)
	}
}

func TestLockOrderThreeRing(t *testing.T) {
	// A→B, B→C, C→A ring across three threads.
	b := trace.NewBuilder()
	threads := []trace.ThreadID{b.Thread("t1", trace.NoThread)}
	threads = append(threads, b.Thread("t2", threads[0]), b.Thread("t3", threads[0]))
	locks := []trace.ObjID{b.Mutex("A"), b.Mutex("B"), b.Mutex("C")}
	for _, th := range threads {
		b.Start(0, th)
	}
	tm := trace.Time(1)
	for i, th := range threads {
		outer, inner := locks[i], locks[(i+1)%3]
		b.Event(tm, th, trace.EvLockAcquire, outer, 0)
		b.Event(tm, th, trace.EvLockObtain, outer, 0)
		b.CS(th, inner, tm+1, tm+1, tm+2)
		b.Event(tm+3, th, trace.EvLockRelease, outer, 0)
		tm += 10
	}
	for _, th := range threads {
		b.Exit(tm, th)
	}
	lo := lockOrderOf(t, b.Trace())
	if !lo.HasCycle() {
		t.Fatal("three-lock ring not detected")
	}
	if got := lo.CycleNames(); len(got) != 1 || len(got[0]) != 3 {
		t.Errorf("cycles = %v", got)
	}
}

// TestLockOrderRepeatedNames pins LockOrderOf's output when lock names
// repeat: nodes, cycle members and edges tie on name, so only the
// ObjID tie-break keeps the result independent of map iteration.
func TestLockOrderRepeatedNames(t *testing.T) {
	b := trace.NewBuilder()
	t0 := b.Thread("t0", trace.NoThread)
	t1 := b.Thread("t1", t0)
	p0, q1, q2, p3 := b.Mutex("p"), b.Mutex("q"), b.Mutex("q"), b.Mutex("p")
	b.Start(0, t0).Start(1, t1)
	// Each thread nests p0/p3 and q1/q2 in opposite orders.
	nest := func(th trace.ThreadID, outer, inner trace.ObjID, at trace.Time) {
		b.CS(th, outer, at, at, at+3)
		b.CS(th, inner, at+1, at+1, at+2)
	}
	nest(t0, p0, p3, 10)
	nest(t0, q1, q2, 20)
	nest(t1, p3, p0, 30)
	nest(t1, q2, q1, 40)
	b.Exit(50, t1).Exit(51, t0)
	tr := b.Trace()

	wantCycles := [][]trace.ObjID{{p0, p3}, {q1, q2}}
	wantNames := [][]string{{"p", "p"}, {"q", "q"}}
	wantEdges := [][2]trace.ObjID{{p0, p3}, {p3, p0}, {q1, q2}, {q2, q1}}
	for i := 0; i < 200; i++ {
		lo := lockOrderOf(t, tr)
		if !reflect.DeepEqual(lo.Cycles, wantCycles) {
			t.Fatalf("call %d: Cycles = %v, want %v", i, lo.Cycles, wantCycles)
		}
		if got := lo.CycleNames(); !reflect.DeepEqual(got, wantNames) {
			t.Fatalf("call %d: CycleNames = %v, want %v", i, got, wantNames)
		}
		var edges [][2]trace.ObjID
		for _, e := range lo.Edges {
			if e.Count != 1 {
				t.Fatalf("call %d: edge %v has count %d, want 1", i, e, e.Count)
			}
			edges = append(edges, [2]trace.ObjID{e.From, e.To})
		}
		if !reflect.DeepEqual(edges, wantEdges) {
			t.Fatalf("call %d: Edges = %v, want %v", i, edges, wantEdges)
		}
	}
}

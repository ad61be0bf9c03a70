package core

import (
	"reflect"
	"testing"

	"critlock/internal/trace"
)

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
		lo := LockOrderOf(tr)
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

package core

import (
	"fmt"
	"testing"

	"critlock/internal/segment"
	"critlock/internal/trace"
)

// sizedSegments views an in-memory trace as consecutive segments of
// size events, like TraceSegments at any segment size.
type sizedSegments struct {
	tr   *trace.Trace
	size int
}

func (m sizedSegments) Skeleton() *trace.Trace {
	return &trace.Trace{Objects: m.tr.Objects, Threads: m.tr.Threads, Meta: m.tr.Meta}
}
func (m sizedSegments) NumEvents() int   { return len(m.tr.Events) }
func (m sizedSegments) NumSegments() int { return (len(m.tr.Events) + m.size - 1) / m.size }

func (m sizedSegments) SegmentBounds(i int) (first, count int) {
	first = i * m.size
	return first, min(m.size, len(m.tr.Events)-first)
}

func (m sizedSegments) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	first, count := m.SegmentBounds(i)
	cols.Reset(count)
	cols.AppendEvents(m.tr.Events[first : first+count])
	return 0, nil
}

// gapTrace has a thread (t1) absent from the middle 16,800 events, so
// from at least three 4,096-event segments in a row, and a thread (t2) whose start sorts
// before its creator's create event, so pass 1 resolves its waker by a
// patch on an event that has no record.
func gapTrace() (tr *trace.Trace, patched int32) {
	b := trace.NewBuilder()
	t0 := b.Thread("t0", trace.NoThread)
	t1 := b.Thread("t1", t0)
	t2 := b.Thread("t2", t0)
	m := b.Mutex("m")
	b.Start(0, t0).Start(0, t1)
	b.Event(0, t2, trace.EvThreadStart, trace.NoObj, int64(t0))
	b.Event(0, t0, trace.EvThreadCreate, trace.NoObj, int64(t2))
	b.CS(t1, m, 1, 1, 2)
	tm := trace.Time(3)
	for r := 0; r < 2800; r++ {
		b.CS(t0, m, tm, tm, tm+2)
		b.CS(t2, m, tm+1, tm+2, tm+3) // contended: a record
		tm += 4
	}
	b.CS(t1, m, tm, tm, tm+1)
	b.Exit(tm+2, t0).Exit(tm+2, t1).Exit(tm+2, t2)
	tr = b.Trace()
	for i, e := range tr.Events {
		if e.Thread == t2 && e.Kind == trace.EvThreadStart {
			patched = int32(i)
		}
	}
	return tr, patched
}

// TestWalkPrevMatchesScan holds the predecessor the walk's windows
// derive from entry links to a naive per-thread scan of the events, at
// any segment size, and requires the waker column to agree across
// them, with the deferred start waker applied.
func TestWalkPrevMatchesScan(t *testing.T) {
	tr, patched := gapTrace()
	n := len(tr.Events)
	want := scanPrev(tr)
	gap := 0 // the most 4,096-event segments in a row t1 is absent from
	for i, e := range tr.Events {
		if e.Thread == 1 && want[i] >= 0 {
			gap = max(gap, i/4096-int(want[i])/4096-1)
		}
	}
	if gap < 3 {
		t.Fatalf("t1 is absent from at most %d 4,096-event segments in a row, want 3", gap)
	}
	var wantWaker []int32
	for _, size := range []int{1, 3, 4096, segment.DefaultSegmentEvents} {
		label := fmt.Sprintf("size=%d", size)
		src := sizedSegments{tr, size}
		ann := newAnnStore(src)
		if _, err := pass1(src, src.Skeleton(), ann, nil, new(trace.Columns)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		l := newSegLoader(src, ann, len(tr.Threads), nil)
		waker := make([]int32, n)
		for i := n - 1; i >= 0; i-- {
			w, err := l.window(int32(i))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := w.prev[i-w.first]; got != want[i] {
				t.Fatalf("%s: event %d: prev %d, want %d", label, i, got, want[i])
			}
			waker[i] = w.waker[i-w.first]
		}
		if wantWaker == nil {
			wantWaker = waker
			if got, create := waker[patched], int32(patched+1); got != create {
				t.Fatalf("%s: patched start %d has waker %d, want %d", label, patched, got, create)
			}
			continue
		}
		for i := range waker {
			if waker[i] != wantWaker[i] {
				t.Fatalf("%s: event %d: waker %d, want %d", label, i, waker[i], wantWaker[i])
			}
		}
	}
}

package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"critlock/internal/trace"
)

// loadLog is a segment source that records which segments it decoded,
// in order, and fails loads of segment fail.
type loadLog struct {
	SegmentSource
	fail  int
	mu    sync.Mutex
	loads []int
}

func (l *loadLog) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	l.mu.Lock()
	l.loads = append(l.loads, i)
	l.mu.Unlock()
	if i == l.fail {
		return 0, fmt.Errorf("segment %d unreadable", i)
	}
	return l.SegmentSource.LoadColumns(i, cols)
}

func (l *loadLog) took() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.loads...)
}

// readAheadOver wraps a 6-segment in-memory trace, failing segment
// fail, in a read-ahead (forced on whatever its size and core count).
func readAheadOver(t *testing.T, fail int) (*readAhead, *loadLog) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	l := b.Mutex("L")
	b.Start(0, main)
	at := trace.Time(1)
	for at < 6*memSegmentEvents-8 {
		b.CS(main, l, at, at+1, at+2)
		at += 3
	}
	b.Exit(at, main)
	log := &loadLog{SegmentSource: TraceSegments(b.Trace()), fail: fail}
	SetReadAheadFrom(t, 0)
	src, done := sweepSource(log)
	t.Cleanup(done)
	r, ok := src.(*readAhead)
	if !ok || r.NumSegments() != 6 {
		t.Fatalf("no read-ahead over %d segments", log.NumSegments())
	}
	return r, log
}

// TestReadAheadRuns: a load that continues a run, forward or backward,
// decodes the next segment in that direction beside the caller, and
// the caller's next load takes it without decoding again; a load that
// breaks the run waits for that decode, drops it and loads inline.
// Every load returns what the source itself returns.
func TestReadAheadRuns(t *testing.T) {
	for _, c := range []struct {
		name      string
		asks      []int
		decodes   []int // after the last ask and the join
		discarded int   // decodes no ask used
	}{
		{"forward from 0", []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}, 0},
		{"backward", []int{5, 4, 3, 2, 1, 0}, []int{5, 4, 3, 2, 1, 0}, 0},
		{"forward then back", []int{2, 3, 2}, []int{2, 3, 4, 2, 1}, 2},
		{"strides", []int{5, 3, 1}, []int{5, 3, 1}, 0},
		{"repeats", []int{3, 3, 3}, []int{3, 3, 3}, 0},
	} {
		r, log := readAheadOver(t, -1)
		var got, want trace.Columns
		for _, i := range c.asks {
			if _, err := r.LoadColumns(i, &got); err != nil {
				t.Fatal(err)
			}
			if _, err := log.SegmentSource.LoadColumns(i, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: segment %d differs from a direct load", c.name, i)
			}
		}
		r.wait()
		if d := log.took(); !reflect.DeepEqual(d, c.decodes) {
			t.Errorf("%s: decoded %v, want %v", c.name, d, c.decodes)
		}
		if n := len(log.took()) - len(c.asks); n != c.discarded {
			t.Errorf("%s: %d decodes unused, want %d", c.name, n, c.discarded)
		}
	}
}

// TestReadAheadErrors: a read-ahead's error reaches the caller only
// when the caller asks for that segment, and a failed load starts no
// read-ahead.
func TestReadAheadErrors(t *testing.T) {
	r, log := readAheadOver(t, 2)
	var cols trace.Columns
	for _, i := range []int{0, 1} { // the load of 1 reads 2 ahead
		if _, err := r.LoadColumns(i, &cols); err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
	}
	if _, err := r.LoadColumns(4, &cols); err != nil {
		t.Fatalf("segment 4 after a failed read-ahead of 2: %v", err)
	}
	if _, err := r.LoadColumns(1, &cols); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadColumns(2, &cols); err == nil || err.Error() != "segment 2 unreadable" {
		t.Fatalf("segment 2: err = %v", err)
	}
	if r.next >= 0 {
		t.Errorf("segment %d reads ahead after a failed load", r.next)
	}
	if d, want := log.took(), []int{0, 1, 2, 4, 1, 2}; !reflect.DeepEqual(d, want) {
		t.Errorf("decoded %v, want %v", d, want)
	}
}

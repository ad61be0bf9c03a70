package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"critlock/internal/trace"
)

// loadLog is a segment source that records which segments it decoded,
// in order, and fails loads of the segments in fail.
type loadLog struct {
	SegmentSource
	fail  []int
	mu    sync.Mutex
	loads []int
}

func (l *loadLog) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	l.mu.Lock()
	l.loads = append(l.loads, i)
	l.mu.Unlock()
	if slices.Contains(l.fail, i) {
		return 0, fmt.Errorf("segment %d unreadable", i)
	}
	return l.SegmentSource.LoadColumns(i, cols)
}

func (l *loadLog) took() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.loads...)
}

// readAheadOver wraps an in-memory trace of segs segments, failing
// the segments in fail, in a read-ahead (forced on whatever its size
// and core count).
func readAheadOver(t *testing.T, segs int, fail ...int) (*readAhead, *loadLog) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	l := b.Mutex("L")
	b.Start(0, main)
	at := trace.Time(1)
	for at < trace.Time(segs*memSegmentEvents-8) {
		b.CS(main, l, at, at+1, at+2)
		at += 3
	}
	b.Exit(at, main)
	log := &loadLog{SegmentSource: TraceSegments(b.Trace()), fail: fail}
	SetReadAheadFrom(t, 0)
	src, done := sweepSource(log)
	t.Cleanup(done)
	r, ok := src.(*readAhead)
	if !ok || r.NumSegments() != segs {
		t.Fatalf("no read-ahead over %d segments", log.NumSegments())
	}
	return r, log
}

// TestReadAheadRuns: a load that continues a run, forward or backward,
// keeps the next two segments in that direction decoding beside the
// caller, and the caller's next loads take them without decoding
// again; a load that breaks the run joins those decodes, drops them and
// loads inline (decodes beyond the asks went unused). Every load
// returns what the source itself returns.
func TestReadAheadRuns(t *testing.T) {
	for _, c := range []struct {
		name    string
		segs    int
		asks    []int
		decodes []int // sorted, after the last ask and the join
	}{
		{"forward from 0", 6, []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}},
		{"backward", 6, []int{5, 4, 3, 2, 1, 0}, []int{0, 1, 2, 3, 4, 5}},
		{"backward from the end", 6, []int{5, 4}, []int{2, 3, 4, 5}},
		{"forward then back", 6, []int{2, 3, 2}, []int{0, 1, 2, 2, 3, 4, 5}},
		{"back then forward", 6, []int{3, 2, 3}, []int{0, 1, 2, 3, 3, 4, 5}},
		{"strides", 6, []int{5, 3, 1}, []int{1, 3, 5}},
		{"repeats", 6, []int{3, 3, 3}, []int{3, 3, 3}},
		{"two forward", 2, []int{0, 1}, []int{0, 1}},
		{"two backward", 2, []int{1, 0}, []int{0, 1}},
		{"two turning", 2, []int{0, 1, 0}, []int{0, 0, 1}},
		{"three forward", 3, []int{0, 1, 2}, []int{0, 1, 2}},
		{"three backward", 3, []int{2, 1, 0}, []int{0, 1, 2}},
		{"three turning", 3, []int{0, 1, 0}, []int{0, 0, 1, 2}},
		{"three strided", 3, []int{0, 2, 0}, []int{0, 0, 1, 2, 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, log := readAheadOver(t, c.segs)
			var got, want trace.Columns
			for _, i := range c.asks {
				if _, err := r.LoadColumns(i, &got); err != nil {
					t.Fatal(err)
				}
				if _, err := log.SegmentSource.LoadColumns(i, &want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("segment %d differs from a direct load", i)
				}
			}
			r.wait()
			d := log.took()
			slices.Sort(d)
			if !reflect.DeepEqual(d, c.decodes) {
				t.Errorf("decoded %v, want %v", d, c.decodes)
			}
		})
	}
}

// TestReadAheadErrors: a read-ahead's error reaches the caller only
// when the caller asks for that segment, whether it is the nearest
// decode in flight or the one after it; the segments before it come
// first with their own results, and a failed load starts no read-ahead.
func TestReadAheadErrors(t *testing.T) {
	for _, c := range []struct {
		name    string
		fail    []int
		asks    []int
		errs    []int // the asks, by position, that fail
		decodes []int // sorted, after the last ask and the join
	}{
		// Segment 0's load reads 1 and 2 ahead; a good load of 1 reads
		// 3 ahead, a failed one nothing.
		{"k+1 fails", []int{1}, []int{0, 1}, []int{1}, []int{0, 1, 2}},
		{"k+2 fails", []int{2}, []int{0, 1, 2}, []int{2}, []int{0, 1, 2, 3}},
		{"k+1 and k+2 fail", []int{1, 2}, []int{0, 1}, []int{1}, []int{0, 1, 2}},
		{"k+2 fails, k+1 asked", []int{2}, []int{0, 1}, nil, []int{0, 1, 2, 3}},
		// A failed read-ahead of 2 is dropped when the run breaks, and
		// 2 fails again when it is asked for.
		{"dropped", []int{2}, []int{0, 1, 4, 1, 2}, []int{4}, []int{0, 1, 1, 2, 2, 3, 4}},
		// Backward: the load of 4 after 5 reads 3 and 2 ahead.
		{"backward k-2 fails", []int{2}, []int{5, 4, 3, 2}, []int{3}, []int{1, 2, 3, 4, 5}},
		{"first load fails", []int{0}, []int{0}, []int{0}, []int{0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, log := readAheadOver(t, 6, c.fail...)
			var cols trace.Columns
			for k, i := range c.asks {
				_, err := r.LoadColumns(i, &cols)
				if !slices.Contains(c.errs, k) {
					if err != nil {
						t.Fatalf("ask %d (segment %d): %v", k, i, err)
					}
				} else if want := fmt.Sprintf("segment %d unreadable", i); err == nil || err.Error() != want {
					t.Fatalf("ask %d (segment %d): err = %v, want %q", k, i, err, want)
				}
			}
			r.wait()
			d := log.took()
			slices.Sort(d)
			if !reflect.DeepEqual(d, c.decodes) {
				t.Errorf("decoded %v, want %v", d, c.decodes)
			}
		})
	}
}

package core_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"critlock/internal/core"
	"critlock/internal/segment"
	"critlock/internal/trace"
)

// FuzzAnalyzeSegments checks determinism on segment dirs nothing has
// validated: a random soup of 1–64 events over 3 threads and 5 objects
// (any kind, any argument, canonical order) is written at 64, 8 and 3
// events per segment with 2-event frames and analyzed at pass
// parallelism 1, 2 and 8 with a one-segment walk window. Either every
// configuration fails, or all of them agree on the critical path and
// the lock, channel, thread and total figures.
func FuzzAnalyzeSegments(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4))
	f.Add(int64(42), uint8(63), uint8(23))
	f.Add(int64(-3), uint8(255), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, count uint8, spread uint8) {
		tr := &trace.Trace{
			Threads: []trace.ThreadInfo{
				{ID: 0, Name: "t0", Creator: trace.NoThread},
				{ID: 1, Name: "t1", Creator: 0},
				{ID: 2, Name: "t2", Creator: 0},
			},
			Objects: []trace.ObjectInfo{
				{ID: 0, Kind: trace.ObjMutex, Name: "m0"},
				{ID: 1, Kind: trace.ObjMutex, Name: "m1"},
				{ID: 2, Kind: trace.ObjCond, Name: "c"},
				{ID: 3, Kind: trace.ObjChan, Name: "ch", Parties: 1},
				{ID: 4, Kind: trace.ObjBarrier, Name: "b", Parties: 2},
			},
			Meta: map[string]string{},
		}
		x := uint64(seed)
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		var tm trace.Time
		for i := 0; i < int(count)%64+1; i++ {
			tm += trace.Time(next() % 4)
			tr.Events = append(tr.Events, trace.Event{
				T:      tm,
				Seq:    uint64(i + 1),
				Thread: trace.ThreadID(next() % 3),
				Kind:   trace.EventKind(next()%uint64(spread%uint8(trace.EvSelect)+1) + 1),
				Obj:    trace.ObjID(next() % 5),
				Arg:    int64(next()%8) - 1,
			})
		}

		type outcome struct {
			label string
			an    *core.Analysis
			err   error
		}
		var runs []outcome
		for _, seg := range []int{64, 8, 3} {
			dir := filepath.Join(t.TempDir(), fmt.Sprint("segs", seg))
			if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: seg, FrameEvents: 2}); err != nil {
				t.Fatalf("seg=%d: writing a canonically ordered soup: %v", seg, err)
			}
			r, err := segment.Open(dir)
			if err != nil {
				t.Fatalf("seg=%d: reopening: %v", seg, err)
			}
			defer r.Close()
			for _, par := range []int{1, 2, 8} {
				an, err := core.AnalyzeSource(core.StreamSource(r), core.Config{
					Options:          core.DefaultOptions(),
					CacheSegments:    1,
					ParallelSegments: par,
				})
				runs = append(runs, outcome{fmt.Sprintf("seg=%d par=%d", seg, par), an, err})
			}
		}
		first := runs[0]
		for _, o := range runs[1:] {
			if (o.err == nil) != (first.err == nil) {
				t.Fatalf("%s: err=%v, but %s: err=%v", o.label, o.err, first.label, first.err)
			}
			if o.err != nil {
				continue
			}
			a, b := first.an, o.an
			if !reflect.DeepEqual(a.CP, b.CP) || !reflect.DeepEqual(a.Locks, b.Locks) ||
				!reflect.DeepEqual(a.Chans, b.Chans) || !reflect.DeepEqual(a.Threads, b.Threads) ||
				!reflect.DeepEqual(a.Totals, b.Totals) {
				t.Fatalf("%s and %s disagree:\n%+v\n%+v", first.label, o.label, a.Totals, b.Totals)
			}
		}
	})
}

package hazard

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"critlock/internal/segment"
	"critlock/internal/trace"
)

// FuzzHazard feeds adversarial event soups — wrong kinds, out-of-range
// threads and objects, unpaired waits, sends without receivers —
// through the full hazard pass. Malformed sequences must error, never
// panic. A sequence FromTrace accepts and the segment writer stores
// must get a byte-identical report from FromSegments at one and two
// workers: the columnar fold against the in-memory one.
func FuzzHazard(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), false)
	f.Add(int64(42), uint8(7), uint8(2), true)
	f.Add(int64(-3), uint8(255), uint8(9), false)
	f.Fuzz(func(t *testing.T, seed int64, count uint8, spread uint8, sorted bool) {
		tr := &trace.Trace{
			Threads: []trace.ThreadInfo{
				{ID: 0, Name: "t0", Creator: trace.NoThread},
				{ID: 1, Name: "t1", Creator: 0},
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
		n := int(count)%64 + 1
		var tm trace.Time
		for i := 0; i < n; i++ {
			if sorted {
				tm += trace.Time(next() % 10)
			} else {
				tm = trace.Time(next() % 100)
			}
			tr.Events = append(tr.Events, trace.Event{
				T:      tm,
				Seq:    uint64(i + 1),
				Thread: trace.ThreadID(int64(next()%4) - 1), // may be out of range
				Kind:   trace.EventKind(next() % uint64(spread%24+1)),
				Obj:    trace.ObjID(int64(next()%7) - 1),
				Arg:    int64(next()%16) - 2,
			})
		}
		r, err := FromTrace(tr) // must not panic
		if err != nil {
			return
		}
		if r == nil {
			t.Fatal("nil report without error")
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "segs")
		if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 64}); err != nil {
			return
		}
		rdr, err := segment.Open(dir)
		if err != nil {
			t.Fatalf("reopening a trace the writer accepted: %v", err)
		}
		defer rdr.Close()
		for _, workers := range []int{1, 2} {
			got, err := FromSegments(rdr, workers)
			if err != nil {
				t.Fatalf("workers=%d: FromTrace accepted the trace, FromSegments: %v", workers, err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, want) {
				t.Fatalf("workers=%d: streaming report differs from in-memory\n got: %s\nwant: %s", workers, gotJSON, want)
			}
		}
	})
}

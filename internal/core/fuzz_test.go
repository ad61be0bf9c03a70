package core_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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
// the lock, channel, thread and total figures. A second leg runs the
// same soup, roughed up (rawSoup), in memory: see checkUnvalidated.
func FuzzAnalyzeSegments(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4))
	f.Add(int64(42), uint8(63), uint8(23))
	f.Add(int64(-3), uint8(255), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, count uint8, spread uint8) {
		tr := soup(seed, int(count)%64+1, spread)
		core.SetWalkWindow(t, 1)

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
				splitPass3(t, par)
				an, err := core.AnalyzeSource(core.StreamSource(r), core.DefaultConfig())
				runs = append(runs, outcome{fmt.Sprintf("seg=%d par=%d", seg, par), an, err})
			}
		}
		checkUnvalidated(t, rawSoup(tr, seed))

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

// rawSoup copies tr's events with one in four of them broken the way
// nothing but trace.Validate catches in memory: a step back in time or
// a repeated (T, Seq), a thread or an object out of range, or an
// invalid kind.
func rawSoup(tr *trace.Trace, seed int64) *trace.Trace {
	raw := *tr
	raw.Events = append([]trace.Event(nil), tr.Events...)
	x := uint64(seed) | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range raw.Events {
		e := &raw.Events[i]
		switch next() % 24 {
		case 0:
			e.T -= trace.Time(next() % 3)
			e.Seq = uint64(i) - next()%2
		case 1:
			e.Thread = trace.ThreadID(len(tr.Threads)) + trace.ThreadID(next()%2)
		case 2:
			e.Thread = -1
		case 3:
			e.Obj = trace.ObjID(len(tr.Objects)) + trace.ObjID(next()%1000)
		case 4:
			e.Obj = -2 - trace.ObjID(next()%3)
		case 5:
			e.Kind = trace.EventKind(next() % 256)
		}
	}
	return &raw
}

// checkUnvalidated runs tr, which nothing has validated, through the
// passes without validation (AnalyzeStream over TraceSegments, pass 3
// in one range and two) and through TraceSource with validation before
// and beside the passes, with a one-segment walk window.
// The passes must end in an error or a result, never a panic or a
// hang. Where trace.Validate rejects tr, TraceSource must return the
// validator's error on both sides of the threshold, and where it
// accepts tr, both sides must agree.
func checkUnvalidated(t *testing.T, tr *trace.Trace) {
	t.Helper()
	cfg := core.DefaultConfig()
	core.SetWalkWindow(t, 1)
	for _, par := range []int{1, 2} {
		splitPass3(t, par)
		var panicked any
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { panicked = recover() }()
			_, _ = core.AnalyzeStream(core.TraceSegments(tr), cfg)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("par=%d: AnalyzeStream over an unvalidated trace hangs", par)
		}
		if panicked != nil {
			t.Fatalf("par=%d: AnalyzeStream over an unvalidated trace panics: %v", par, panicked)
		}
	}

	// Validation beside the passes needs two Ps; pass 3 runs as one
	// range.
	withCores(t)
	readAhead(t, false)
	verr := trace.Validate(tr)
	first, ferr := core.AnalyzeSource(core.TraceSourceBesideFrom(tr, len(tr.Events)+1), cfg)
	beside, berr := core.AnalyzeSource(core.TraceSourceBesideFrom(tr, 1), cfg)
	if verr != nil {
		want := "core: invalid trace: " + verr.Error()
		for _, err := range []error{ferr, berr} {
			if err == nil || err.Error() != want {
				t.Fatalf("TraceSource err = %v, want %s", err, want)
			}
		}
		return
	}
	if fmt.Sprint(ferr) != fmt.Sprint(berr) {
		t.Fatalf("validated first: %v; beside the passes: %v", ferr, berr)
	}
	if ferr == nil && (!reflect.DeepEqual(first.CP, beside.CP) || !reflect.DeepEqual(first.Locks, beside.Locks) ||
		!reflect.DeepEqual(first.Totals, beside.Totals)) {
		t.Fatalf("validating beside the passes changed the analysis")
	}
}

// TestUnvalidatedTraceNeverPanics runs checkUnvalidated over roughed-up
// soups of one segment and of several, so some break at a segment
// seam, with 2 or more cores so validation really runs beside the
// passes.
func TestUnvalidatedTraceNeverPanics(t *testing.T) {
	withCores(t)
	for seed := int64(1); seed <= 200; seed++ {
		n := 64
		if seed%20 == 0 {
			n = 10_000 // three in-memory segments
		}
		checkUnvalidated(t, rawSoup(soup(seed, n, uint8(seed)), seed))
	}
}

// soup is n events over 3 threads and 5 objects in canonical order:
// any kind up to spread%EvSelect+1, any argument.
func soup(seed int64, n int, spread uint8) *trace.Trace {
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
	for i := range n {
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
	return tr
}

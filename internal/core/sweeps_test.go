package core_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/obs"
	"critlock/internal/report"
	"critlock/internal/segment"
	"critlock/internal/trace"
	"critlock/internal/tracetest"
)

// The sequential segment sweeps — the passes over one range, slack,
// the hazard fold and the timelines — read through a read-ahead on 2
// or more cores for sources of 128K events or more. The tests here
// force it on (SetReadAheadFrom 0) and off (a size beyond every test
// trace) and hold every output, every error and the goroutine count to
// the sequential reads.

// readAhead forces the read-ahead on or off until the test ends. On,
// the test runs with at least two Ps, as the read-ahead needs.
func readAhead(t *testing.T, on bool) {
	if on {
		withCores(t)
		core.SetReadAheadFrom(t, 0)
	} else {
		core.SetReadAheadFrom(t, math.MaxInt)
	}
}

// splitPass3 runs the rest of the test with pass 3 split into k ranges
// (fewer on a source of fewer segments) the way the analysis splits a
// large source: k Ps, and the read-ahead's gate lowered to every
// source, so at k ≥ 2 pass 1 and the walk read ahead too. At k = 1
// pass 3 is one range and nothing reads ahead. Tests that call it must
// not run in parallel with others.
func splitPass3(t testing.TB, k int) {
	core.SetReadAheadFrom(t, 0)
	prev := runtime.GOMAXPROCS(k)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// sweepOutputs is everything a sequential sweep produces for one
// source: the analysis export, slack, both views of the hazard fold and
// the timelines.
type sweepOutputs struct {
	Export     string
	Slack      *core.SlackAnalysis
	Hazards    string
	Edges      []hazard.LockOrderEdge
	Cycles     [][]trace.ObjID
	Gantt, SVG string
}

func sweep(t *testing.T, src core.SegmentSource, cfg core.Config) sweepOutputs {
	t.Helper()
	an, err := core.AnalyzeStream(src, cfg)
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	var out sweepOutputs
	exp, err := json.Marshal(report.BuildExport("", "", true, an))
	if err != nil {
		t.Fatal(err)
	}
	out.Export = string(exp)
	if out.Slack, err = an.Slack(src); err != nil {
		t.Fatalf("Slack: %v", err)
	}
	rep, lo, err := hazard.Fold(src)
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	out.Hazards, out.Edges, out.Cycles = string(js), lo.Edges, lo.Cycles
	if out.Gantt, err = report.Gantt(an, src, 80); err != nil {
		t.Fatalf("Gantt: %v", err)
	}
	if out.SVG, err = report.SVGGantt(an, src, 400); err != nil {
		t.Fatalf("SVGGantt: %v", err)
	}
	return out
}

// TestReadAheadMatchesSequential: with the read-ahead on, every sweep
// gives exactly what it gives with it off — at 1-, 16- and 4096-event
// segments, mapped and buffered reads, walk windows of one segment
// (every step back to an evicted segment is a miss) and the default,
// and over an in-memory trace's segments.
func TestReadAheadMatchesSequential(t *testing.T) {
	for _, name := range []string{"radiosity", "pipeline", "deadlockprone"} {
		tr := simTrace(t, name, 0, 1)
		type source struct {
			label string
			src   core.SegmentSource
		}
		sources := []source{{"memory", core.TraceSegments(tr)}}
		for _, segEvents := range []int{1, 16, 4096} {
			if segEvents == 1 && len(tr.Events) > 3000 {
				continue // one file per event: small traces only
			}
			for _, noMmap := range []bool{false, true} {
				sources = append(sources, source{fmt.Sprintf("seg%d/nommap=%t", segEvents, noMmap),
					segmented(t, tr, segEvents, 0, noMmap)})
			}
		}
		for _, s := range sources {
			for _, window := range []int{1, core.DefaultWalkWindow} {
				core.SetWalkWindow(t, window)
				readAhead(t, false)
				want := sweep(t, s.src, core.DefaultConfig())
				readAhead(t, true)
				got := sweep(t, s.src, core.DefaultConfig())
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s window=%d: outputs differ with the read-ahead on", name, s.label, window)
				}
			}
		}
	}
}

// badSegments is tr's in-memory segments with event k of each listed
// segment moved before its predecessor, which the segment's first load
// rejects with an error naming the event.
func badSegments(t *testing.T, tr *trace.Trace, segs ...int) (core.SegmentSource, []string) {
	t.Helper()
	bad := *tr
	bad.Events = append([]trace.Event(nil), tr.Events...)
	var errs []string
	for _, s := range segs {
		i := s*4096 + 100
		bad.Events[i].T = bad.Events[i-1].T - 1
		errs = append(errs, fmt.Sprintf("core: event %d out of order", i))
	}
	return core.TraceSegments(&bad), errs
}

// sweeps returns every sweep over src, each reporting its error: the
// analysis at the default configuration (0), slack (1), the hazard fold
// (2) and the timelines (3).
func sweeps(src core.SegmentSource, an *core.Analysis) []func() error {
	return []func() error{
		func() error {
			_, err := core.AnalyzeStream(src, core.Config{Options: core.DefaultOptions()})
			return err
		},
		func() error { _, err := an.Slack(src); return err },
		func() error { _, _, err := hazard.Fold(src); return err },
		func() error { _, err := report.Gantt(an, src, 80); return err },
	}
}

// sweepErrors runs every sweep over src and returns their errors.
func sweepErrors(src core.SegmentSource, an *core.Analysis) []error {
	var errs []error
	for _, run := range sweeps(src, an) {
		errs = append(errs, run())
	}
	return errs
}

// TestReadAheadErrorParity: a bad segment k+1 fails every sweep with
// the text it fails with when nothing reads ahead, and when segments k
// and k+1 are both bad, the error is that of the one the sweep reaches
// first — k's for the forward sweeps, k+1's for slack's backward one —
// and the read-ahead of the other never replaces it. A corrupt segment
// file fails the same way on or off.
func TestReadAheadErrorParity(t *testing.T) {
	tr := simTrace(t, "radiosity", 0, 1) // five in-memory segments
	good, err := core.AnalyzeStream(core.TraceSegments(tr), core.Config{Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, src core.SegmentSource, errs ...string) {
		t.Helper()
		for _, on := range []bool{false, true} {
			readAhead(t, on)
			for k, err := range sweepErrors(src, good) {
				want := errs[0]
				if k == 1 { // slack sweeps backward
					want = errs[len(errs)-1]
				}
				if err == nil || err.Error() != want {
					t.Errorf("%s, read-ahead %t, sweep %d: err = %v, want %q", label, on, k, err, want)
				}
			}
		}
	}
	src, errs := badSegments(t, tr, 2)
	check("bad segment 2", src, errs...)
	src, errs = badSegments(t, tr, 1, 2)
	check("bad segments 1 and 2", src, errs...)

	dir := filepath.Join(t.TempDir(), "segs")
	if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 1024}); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "seg-000003.clsg")
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := segment.OpenWith(dir, segment.ReadOptions{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	readAhead(t, false)
	_, want := core.AnalyzeStream(r, core.Config{Options: core.DefaultOptions()})
	if want == nil {
		t.Fatal("a corrupt segment file analyzed cleanly")
	}
	check("corrupt segment file 3", r, want.Error())
}

// probe is a segment source that counts the loads in progress and
// their peak, and fails segment fail or, once loaded, gives the first
// event of segment bad an invalid kind, which every sweep's own checks
// reject.
type probe struct {
	core.SegmentSource
	fail, bad    int
	active, peak atomic.Int32
}

func (p *probe) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	a := p.active.Add(1)
	for m := p.peak.Load(); a > m && !p.peak.CompareAndSwap(m, a); m = p.peak.Load() {
	}
	defer p.active.Add(-1)
	time.Sleep(time.Millisecond) // keep the read-ahead busy past the caller's error
	if i == p.fail {
		return 0, fmt.Errorf("segment %d unreadable", i)
	}
	n, err := p.SegmentSource.LoadColumns(i, cols)
	if i == p.bad && err == nil {
		cols.Kind[0] = 0
	}
	return n, err
}

// TestReadAheadGoroutines: no sweep leaves a decode running or a
// goroutine behind, whether it succeeds, a load fails or its own checks
// reject an event (the passes' and the hazard machine's). Every sweep
// keeps exactly ReadAheadDepth decodes in flight at its peak, never
// more, and joins them; the analysis's peak is pass 3's range count,
// one per P (three here), once pass 3 runs, and the read-ahead's when
// pass 1 fails first. At two Ps, pass 1 and the walk read ahead, each
// peaking at ReadAheadDepth loads, and pass 3 at its two ranges.
func TestReadAheadGoroutines(t *testing.T) {
	readAhead(t, true)
	prev := runtime.GOMAXPROCS(3)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	tr := simTrace(t, "radiosity", 0, 1)
	good, err := core.AnalyzeStream(core.TraceSegments(tr), core.Config{Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		name      string
		fail, bad int
	}{{"success", -1, -1}, {"load error", 2, -1}, {"rejected event", -1, 2}} {
		src := &probe{SegmentSource: segmented(t, tr, 1024, 0, false), fail: c.fail, bad: c.bad}
		ranges := core.Pass3Ranges(src)
		if ranges != 3 {
			t.Fatalf("pass 3 splits into %d ranges at 3 Ps, want 3", ranges)
		}
		for k, run := range sweeps(src, good) {
			src.peak.Store(0)
			err := run()
			// Slack (1) and the timelines (3) pass over events of a
			// kind they do not know.
			wantErr := c.fail >= 0 || c.bad >= 0 && k != 1 && k != 3
			if (err != nil) != wantErr {
				t.Errorf("%s, sweep %d: err = %v", c.name, k, err)
			}
			if n := src.active.Load(); n != 0 {
				t.Errorf("%s, sweep %d: %d loads still running", c.name, k, n)
			}
			// The load error fails pass 1; the rejected event, an
			// acquire whose obtain pass 3 then finds orphaned, fails
			// pass 3's head range while the other ranges run on.
			want := int32(core.ReadAheadDepth)
			if k == 0 && c.fail < 0 {
				want = int32(ranges)
			}
			if n := src.peak.Load(); n != want {
				t.Errorf("%s, sweep %d: %d loads ran at once at the peak, want %d", c.name, k, n, want)
			}
		}
		if n := settledGoroutines(base); n != base {
			t.Errorf("%s: %d goroutines after the sweeps, %d before", c.name, n, base)
		}
	}

	runtime.GOMAXPROCS(2)
	src := &probe{SegmentSource: segmented(t, tr, 1024, 0, false), fail: -1, bad: -1}
	peaks := map[string]int32{}
	opts := core.DefaultOptions()
	opts.Observer = obs.Funcs{
		Start: func(string) { src.peak.Store(0) },
		Done:  func(phase string, _ time.Duration) { peaks[phase] = src.peak.Load() },
	}
	if _, err := core.AnalyzeStream(src, core.Config{Options: opts}); err != nil {
		t.Fatalf("two Ps: %v", err)
	}
	want := map[string]int32{"pass1": core.ReadAheadDepth, "walk": core.ReadAheadDepth, "pass3": 2}
	if !reflect.DeepEqual(peaks, want) {
		t.Errorf("two Ps: loads at once at each phase's peak %v, want %v", peaks, want)
	}
	if n := src.active.Load(); n != 0 {
		t.Errorf("two Ps: %d loads still running", n)
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("two Ps: %d goroutines after the analysis, %d before", n, base)
	}
}

// rawSegments views a trace's events as per-event segments and loads
// them with no check at all, so the hazard machine meets every bad
// event itself.
type rawSegments struct {
	tr  *trace.Trace
	per int
}

func (r rawSegments) Skeleton() *trace.Trace {
	return &trace.Trace{Threads: r.tr.Threads, Objects: r.tr.Objects, Meta: r.tr.Meta}
}
func (r rawSegments) NumEvents() int   { return len(r.tr.Events) }
func (r rawSegments) NumSegments() int { return (len(r.tr.Events) + r.per - 1) / r.per }
func (r rawSegments) SegmentBounds(i int) (first, count int) {
	return i * r.per, min(r.per, len(r.tr.Events)-i*r.per)
}
func (r rawSegments) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	first, count := r.SegmentBounds(i)
	cols.Reset(count)
	cols.AppendEvents(r.tr.Events[first : first+count])
	return 0, nil
}

// TestFoldColumnsParity: the hazard fold, which steps the machine
// straight from each segment's columns, fails on a bad kind, an
// out-of-range thread and a time inversion at the first, a middle and
// the last event of a segment with the text FromTrace gives on the same
// events — at 1-, 16- and 4096-event segments, with the read-ahead on
// and off — and gives FromTrace's report on the good trace.
func TestFoldColumnsParity(t *testing.T) {
	tr := simTrace(t, "radiosity", 0, 1)
	want, err := hazard.FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	breaks := []struct {
		name   string
		mutate func(e *trace.Event, prev trace.Event)
	}{
		{"bad kind", func(e *trace.Event, _ trace.Event) { e.Kind = trace.EvSelect + 1 }},
		{"thread out of range", func(e *trace.Event, _ trace.Event) { e.Thread = trace.ThreadID(len(tr.Threads)) }},
		{"time inversion", func(e *trace.Event, prev trace.Event) { e.T = prev.T - 1 }},
	}
	for _, per := range []int{1, 16, 4096} {
		if len(tr.Events) < 3*per {
			t.Fatalf("%d events: too few for three %d-event segments", len(tr.Events), per)
		}
		for _, on := range []bool{false, true} {
			readAhead(t, on)
			rep, err := hazard.FromSegments(rawSegments{tr, per}, 1)
			if err != nil {
				t.Fatalf("per=%d read-ahead %t: %v", per, on, err)
			}
			if js, _ := json.Marshal(rep); string(js) != string(wantJSON) {
				t.Errorf("per=%d read-ahead %t: report differs from FromTrace", per, on)
			}
		}
		for _, at := range []struct {
			name string
			off  int
		}{{"first", 0}, {"middle", per / 2}, {"last", per - 1}} {
			for _, b := range breaks {
				i := 2*per + at.off // segment 2
				bad := *tr
				bad.Events = slices.Clone(tr.Events)
				b.mutate(&bad.Events[i], bad.Events[i-1])
				_, err := hazard.FromTrace(&bad)
				if err == nil {
					t.Fatalf("FromTrace accepted a %s at event %d", b.name, i)
				}
				for _, on := range []bool{false, true} {
					readAhead(t, on)
					src := rawSegments{&bad, per}
					_, got := hazard.FromSegments(src, 1)
					_, _, got2 := hazard.Fold(src)
					for _, g := range []error{got, got2} {
						if g == nil || g.Error() != err.Error() {
							t.Errorf("per=%d %s at the %s event, read-ahead %t: err = %v, want %q", per, b.name, at.name, on, g, err)
						}
					}
				}
			}
		}
	}
}

var forEachSum trace.Time

// BenchmarkForEachEvent reports the forward event sweep behind the
// timelines and the predictor, in ns per event, over a 2M-event
// segment directory of the benchmark's mixed_2m program (64K-event
// segments, memory-mapped; on 2 or more cores the read-ahead decodes
// beside the sweep).
func BenchmarkForEachEvent(b *testing.B) {
	tr, err := tracetest.Mixed(2_000_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "segs")
	if err := segment.WriteTrace(dir, tr, segment.Options{}); err != nil {
		b.Fatal(err)
	}
	r, err := segment.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := core.ForEachEvent(r, func(e trace.Event) { forEachSum += e.T }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.NumEvents()), "ns/event")
}

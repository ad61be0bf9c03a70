package core_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"critlock/internal/core"
	"critlock/internal/segment"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// simTrace runs a workload on the simulator and returns its trace.
func simTrace(t *testing.T, name string, threads int, seed int64) *trace.Trace {
	t.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		t.Fatalf("workloads.Get(%q): %v", name, err)
	}
	rt := sim.New(sim.Config{Contexts: 8, Seed: seed})
	tr, _, err := workloads.Run(rt, spec, workloads.Params{Threads: threads, Seed: seed, Scale: 0.25})
	if err != nil {
		t.Fatalf("workloads.Run(%q): %v", name, err)
	}
	return tr
}

// segmented writes tr under dir with the given segment/frame sizes and
// opens it back, memory-mapped or buffered per noMmap.
func segmented(t *testing.T, tr *trace.Trace, segEvents, frameEvents int, noMmap bool) *segment.Reader {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "segs")
	err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: segEvents, FrameEvents: frameEvents})
	if err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	r, err := segment.OpenWith(dir, segment.ReadOptions{NoMmap: noMmap})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	if r.NumEvents() != len(tr.Events) {
		t.Fatalf("segmented trace has %d events, want %d", r.NumEvents(), len(tr.Events))
	}
	return r
}

// requireIdentical asserts that the pipeline's analysis (str) matches
// the reference (mem) on every exported result.
func requireIdentical(t *testing.T, mem, str *core.Analysis, composition bool) {
	t.Helper()
	if mem.Start != str.Start {
		t.Errorf("start differs: mem %d, str %d", mem.Start, str.Start)
	}
	if !reflect.DeepEqual(mem.CP, str.CP) {
		t.Errorf("critical path differs:\n mem: len=%d exec=%d wait=%d steps=%d jumps=%d pieces=%d\n str: len=%d exec=%d wait=%d steps=%d jumps=%d pieces=%d",
			mem.CP.Length, mem.CP.ExecTime, mem.CP.WaitTime, mem.CP.Steps, mem.CP.Jumps, len(mem.CP.Pieces),
			str.CP.Length, str.CP.ExecTime, str.CP.WaitTime, str.CP.Steps, str.CP.Jumps, len(str.CP.Pieces))
	}
	if !reflect.DeepEqual(mem.Locks, str.Locks) {
		for i := range mem.Locks {
			if i >= len(str.Locks) || !reflect.DeepEqual(mem.Locks[i], str.Locks[i]) {
				t.Errorf("lock %d differs:\n mem: %+v", i, mem.Locks[i])
				if i < len(str.Locks) {
					t.Errorf(" str: %+v", str.Locks[i])
				}
				break
			}
		}
		if len(mem.Locks) != len(str.Locks) {
			t.Errorf("lock count differs: mem=%d str=%d", len(mem.Locks), len(str.Locks))
		}
	}
	if !reflect.DeepEqual(mem.Threads, str.Threads) {
		for i := range mem.Threads {
			if i >= len(str.Threads) || !reflect.DeepEqual(mem.Threads[i], str.Threads[i]) {
				t.Errorf("thread %d differs:\n mem: %+v", i, mem.Threads[i])
				if i < len(str.Threads) {
					t.Errorf(" str: %+v", str.Threads[i])
				}
				break
			}
		}
	}
	if !reflect.DeepEqual(mem.Chans, str.Chans) {
		for i := range mem.Chans {
			if i >= len(str.Chans) || !reflect.DeepEqual(mem.Chans[i], str.Chans[i]) {
				t.Errorf("chan %d differs:\n mem: %+v", i, mem.Chans[i])
				if i < len(str.Chans) {
					t.Errorf(" str: %+v", str.Chans[i])
				}
				break
			}
		}
		if len(mem.Chans) != len(str.Chans) {
			t.Errorf("chan count differs: mem=%d str=%d", len(mem.Chans), len(str.Chans))
		}
	}
	if !reflect.DeepEqual(mem.Totals, str.Totals) {
		t.Errorf("totals differ:\n mem: %+v\n str: %+v", mem.Totals, str.Totals)
	}
	if !reflect.DeepEqual(mem.Windows(7), str.Windows(7)) {
		t.Errorf("windows differ:\n mem: %+v\n str: %+v", mem.Windows(7), str.Windows(7))
	}
	if composition {
		if !reflect.DeepEqual(mem.Composition(), str.Composition()) {
			t.Errorf("composition differs")
		}
	}
}

// TestAnalyzeStreamMatchesInMemory is the oracle for the pipeline: the
// analysis of a segmented trace, and of the same trace in memory
// through TraceSource, is bit-identical to the in-memory reference
// (reference_test.go) across workloads, seeds, segment sizes (including
// the pathological 1-event segments), walk-window sizes, pass
// parallelism, mmap on/off and annotation spill mode.
func TestAnalyzeStreamMatchesInMemory(t *testing.T) {
	type cfg struct {
		workload string
		threads  int
		seed     int64
	}
	cases := []cfg{
		{"micro", 4, 1},
		{"micro", 8, 2},
		{"micro", 8, 3},
		{"radiosity", 8, 1},
		{"tsp", 6, 2},
		{"waternsq", 8, 1},
		{"uts", 6, 1},
		// Channel workloads: send/recv/select wakers must match the
		// reference's channel pairing.
		{"pipeline", 4, 1},
		{"pipeline", 6, 2},
		{"fanin", 4, 1},
		{"fanin", 6, 3},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/"+string(rune('0'+c.threads))+"t", func(t *testing.T) {
			t.Parallel()
			tr := simTrace(t, c.workload, c.threads, c.seed)
			mem := core.ReferenceAnalysis(tr, core.DefaultOptions())
			n := len(tr.Events)

			segSizes := []int{n/7 + 1, 64}
			if n < 3000 {
				// Small traces earn the pathological shapes.
				segSizes = append(segSizes, 7, 1)
			}
			check := func(src core.Source, cfg core.Config, label string) {
				t.Helper()
				str, err := core.AnalyzeSource(src, cfg)
				if err != nil {
					t.Fatalf("AnalyzeSource(%s): %v", label, err)
				}
				requireIdentical(t, mem, str, true)
				if t.Failed() {
					t.Fatalf("divergence at %s", label)
				}
			}
			for _, segEvents := range segSizes {
				for _, noMmap := range []bool{false, true} {
					r := segmented(t, tr, segEvents, 16, noMmap)
					for _, par := range []int{1, 2, 8} {
						check(core.StreamSource(r), core.Config{
							Options:          core.DefaultOptions(),
							CacheSegments:    2,
							Composition:      true,
							ParallelSegments: par,
						}, fmt.Sprintf("seg=%d mmap=%t par=%d", segEvents, !noMmap, par))
					}
				}
			}
			// TraceSource views the same events as in-memory segments;
			// it must land on the same result through every knob.
			mt := core.TraceSource(tr)
			for _, par := range []int{1, 2, 8} {
				check(mt, core.Config{Options: core.DefaultOptions(), ParallelSegments: par},
					fmt.Sprintf("trace par=%d", par))
			}
			// Walk-window sweep (the backward walk is sequential at
			// any parallelism; vary its residency separately).
			r := core.StreamSource(segmented(t, tr, segSizes[0], 16, false))
			for _, window := range []int{1, 2, 4} {
				cfg := core.Config{Options: core.DefaultOptions(), CacheSegments: window, Composition: true}
				check(r, cfg, fmt.Sprintf("window=%d", window))
				check(mt, cfg, fmt.Sprintf("trace window=%d", window))
			}
			// Spill mode: a negative annotation budget forces the
			// temp-file path, sequential and parallel.
			for _, par := range []int{1, 8} {
				cfg := core.Config{
					Options:          core.DefaultOptions(),
					Composition:      true,
					ParallelSegments: par,
					AnnotationBudget: -1,
				}
				check(r, cfg, fmt.Sprintf("spill par=%d", par))
				check(mt, cfg, fmt.Sprintf("trace spill par=%d", par))
			}
		})
	}
}

// TestAnalyzeStreamSpilledCollector exercises the full spill path: the
// collector spills per-thread runs to disk mid-run, the spiller merges
// them into segments, and the analysis of the result matches the
// reference analysis of an identical unspilled run.
func TestAnalyzeStreamSpilledCollector(t *testing.T) {
	spec, err := workloads.Get("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	params := workloads.Params{Threads: 8, Seed: 7, Scale: 0.25}

	// Reference: plain run, reference analysis.
	rt := sim.New(sim.Config{Contexts: 8, Seed: 7})
	tr, _, err := workloads.Run(rt, spec, params)
	if err != nil {
		t.Fatal(err)
	}
	mem := core.ReferenceAnalysis(tr, core.DefaultOptions())

	// Same run again, with an aggressive spill threshold.
	dir := filepath.Join(t.TempDir(), "spill")
	sp, err := segment.NewSpiller(dir, segment.Options{SegmentEvents: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := sim.New(sim.Config{Contexts: 8, Seed: 7})
	rt2.Collector().SetSpill(sp, 256)
	if _, _, err := workloads.Run(rt2, spec, params); err != nil {
		t.Fatal(err)
	}
	r, err := sp.Finish(rt2.Collector())
	if err != nil {
		t.Fatalf("Spiller.Finish: %v", err)
	}
	if r.NumEvents() != len(tr.Events) {
		t.Fatalf("spilled trace has %d events, want %d", r.NumEvents(), len(tr.Events))
	}
	str, err := core.AnalyzeStream(r, core.Config{Options: core.DefaultOptions(), Composition: true})
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	requireIdentical(t, mem, str, true)

	// The spiller's reader supports concurrent loads too: the parallel
	// passes must agree byte-for-byte.
	par, err := core.AnalyzeStream(r, core.Config{Options: core.DefaultOptions(), Composition: true, ParallelSegments: 4})
	if err != nil {
		t.Fatalf("AnalyzeStream(par=4): %v", err)
	}
	requireIdentical(t, mem, par, true)
}

// TestAnalyzeStreamEmpty checks the empty-source contract.
func TestAnalyzeStreamEmpty(t *testing.T) {
	tr := simTrace(t, "micro", 4, 1)
	r := segmented(t, tr, 0, 0, false)
	// A reader over a real directory is never empty; exercise the
	// guard through a stub.
	if _, err := core.AnalyzeStream(emptySource{r}, core.DefaultConfig()); err != trace.ErrEmptyTrace {
		t.Fatalf("AnalyzeStream(empty) = %v, want ErrEmptyTrace", err)
	}
}

type emptySource struct{ *segment.Reader }

func (emptySource) NumEvents() int { return 0 }

// TestTraceSourceSegmentBoundaries runs TraceSource on a trace longer
// than three of its in-memory segments and not a multiple of their
// size, so every pass crosses segment boundaries and ends on a partial
// segment, at several pass parallelisms and with both hold accountings.
func TestTraceSourceSegmentBoundaries(t *testing.T) {
	const memSegment = 4096
	tr := simTrace(t, "uts", 6, 1)
	if n := len(tr.Events); n <= 3*memSegment || n%memSegment == 0 {
		t.Fatalf("trace has %d events; want more than %d and not a multiple of %d", n, 3*memSegment, memSegment)
	}
	for _, clip := range []bool{true, false} {
		opts := core.Options{ClipHold: clip}
		ref := core.ReferenceAnalysis(tr, opts)
		for _, par := range []int{1, 2, 8} {
			an, err := core.AnalyzeSource(core.TraceSource(tr), core.Config{Options: opts, ParallelSegments: par})
			if err != nil {
				t.Fatalf("clip=%t par=%d: %v", clip, par, err)
			}
			if an.Trace.Events != nil || !reflect.DeepEqual(an.Trace.Threads, tr.Threads) ||
				!reflect.DeepEqual(an.Trace.Objects, tr.Objects) {
				t.Fatalf("clip=%t par=%d: Analysis.Trace is not the analyzed trace's skeleton", clip, par)
			}
			requireIdentical(t, ref, an, true)
			if t.Failed() {
				t.Fatalf("divergence at clip=%t par=%d", clip, par)
			}
		}
	}
}

// chanHandoffTrace puts a blocked buffered send and a blocked receive
// of a closed channel on the critical path, which the sim workloads do
// not: main's second send on the one-slot channel c waits for worker
// w1's first receive, main later closes done, and worker w2 — blocked
// receiving from done — finishes last.
func chanHandoffTrace() *trace.Trace {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	w1 := b.Thread("w1", main)
	w2 := b.Thread("w2", main)
	c := b.Chan("c", 1)
	done := b.Chan("done", 0)
	op := func(begin, end trace.Time, th trace.ThreadID, kind trace.EventKind, ch trace.ObjID, arg int64) {
		b.Event(begin, th, kind-1, ch, 0) // the matching begin event
		b.Event(end, th, kind, ch, arg)
	}
	// Emission order breaks timestamp ties: each waker is emitted before
	// the completion it releases.
	b.Start(0, main).Start(0, w1).Start(1, w2)
	op(2, 2, main, trace.EvChanSend, c, 0)
	op(10, 10, w1, trace.EvChanRecv, c, 0)
	op(3, 10, main, trace.EvChanSend, c, trace.ChanArgBlocked)
	op(11, 11, w1, trace.EvChanRecv, c, 0)
	b.Exit(12, w1)
	b.Event(40, main, trace.EvChanClose, done, 0)
	op(3, 40, w2, trace.EvChanRecv, done, trace.ChanArgBlocked|trace.ChanArgClosed)
	b.Join(main, w1, 41, 41)
	b.Exit(50, main)
	b.Exit(100, w2)
	return b.Trace()
}

// TestChanHandoffMatchesReference runs the hand-built channel trace,
// whole and in tiny segments, against the reference.
func TestChanHandoffMatchesReference(t *testing.T) {
	tr := chanHandoffTrace()
	ref := core.ReferenceAnalysis(tr, core.DefaultOptions())
	chanJumps := 0
	for _, j := range ref.CP.JumpLog {
		if j.Kind == core.JumpChan {
			chanJumps++
		}
	}
	if chanJumps != 2 {
		t.Fatalf("reference path takes %d channel jumps, want 2: %+v", chanJumps, ref.CP.JumpLog)
	}
	check := func(src core.Source, label string) {
		t.Helper()
		an, err := core.AnalyzeSource(src, core.Config{Options: core.DefaultOptions(), Composition: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireIdentical(t, ref, an, true)
	}
	check(core.TraceSource(tr), "trace")
	for _, seg := range []int{1, 7} {
		check(core.StreamSource(segmented(t, tr, seg, 4, false)), fmt.Sprintf("seg=%d", seg))
	}
}

// TestAnalyzeStreamRejectsUnknownObjects: segment input is not
// validated, and segment files accept lock and channel events naming an
// object past the skeleton's table, so pass 1 must fail such a trace
// with an error, sequential or parallel, instead of letting pass 3
// index its per-object state out of range.
func TestAnalyzeStreamRejectsUnknownObjects(t *testing.T) {
	for name, emit := range map[string]func(b *trace.Builder, th trace.ThreadID){
		"lock": func(b *trace.Builder, th trace.ThreadID) { b.CS(th, 99, 1, 2, 3) },
		"chan": func(b *trace.Builder, th trace.ThreadID) {
			b.Event(1, th, trace.EvChanSendBegin, 99, 0)
			b.Event(2, th, trace.EvChanSend, 99, 0)
			b.Event(3, th, trace.EvChanClose, 99, 0)
		},
	} {
		b := trace.NewBuilder()
		main := b.Thread("main", trace.NoThread)
		b.Start(0, main)
		emit(b, main)
		b.Exit(4, main)
		r := segmented(t, b.Trace(), 1, 1, false)
		for _, par := range []int{1, 2} {
			_, err := core.AnalyzeStream(r, core.Config{Options: core.DefaultOptions(), ParallelSegments: par})
			if err == nil || !strings.Contains(err.Error(), "references object 99") {
				t.Errorf("%s, par=%d: err = %v, want an out-of-range object error", name, par, err)
			}
		}
	}
}

// TestLockErrorsAtAnyParallelism: pass 3 rejects an
// unpaired release, an unpaired obtain and an obtain with no acquire
// with the same error at every worker count, whether the bad event lies
// in the head range, which fails on the spot, or past it, where the
// merge's replay of the relayed event fails.
func TestLockErrorsAtAnyParallelism(t *testing.T) {
	const pad = 64 // padding critical sections, three events each
	cases := []struct {
		name string
		// prefix emits the events before the bad one from time at and
		// returns the next free time.
		prefix  func(b *trace.Builder, th trace.ThreadID, l trace.ObjID, at trace.Time) trace.Time
		badKind trace.EventKind
		want    string
	}{
		{"unpaired release", func(b *trace.Builder, th trace.ThreadID, l trace.ObjID, at trace.Time) trace.Time {
			b.CS(th, l, at, at+1, at+2)
			return at + 3
		}, trace.EvLockRelease, `release of "L" without hold`},
		{"unpaired obtain", func(b *trace.Builder, th trace.ThreadID, l trace.ObjID, at trace.Time) trace.Time {
			b.CS(th, l, at, at+1, at+2)
			return at + 3
		}, trace.EvLockObtain, `obtain of "L" without acquire`},
		{"obtain without acquire", func(_ *trace.Builder, _ trace.ThreadID, _ trace.ObjID, at trace.Time) trace.Time {
			return at
		}, trace.EvLockObtain, `obtain of "L" without acquire`},
	}
	for _, c := range cases {
		for _, inHead := range []bool{true, false} {
			b := trace.NewBuilder()
			main := b.Thread("main", trace.NoThread)
			l, p := b.Mutex("L"), b.Mutex("P")
			b.Start(0, main)
			at := c.prefix(b, main, l, 1)
			padding := func() {
				for i := 0; i < pad; i++ {
					b.CS(main, p, at, at+1, at+2)
					at += 3
				}
			}
			if !inHead {
				padding()
			}
			badT := at
			b.Event(badT, main, c.badKind, l, 0)
			at++
			if inHead {
				padding()
			}
			b.Exit(at, main)
			tr := b.Trace()
			n := len(tr.Events)
			bad := slices.IndexFunc(tr.Events, func(e trace.Event) bool { return e.T == badT })
			// One-event segments: the head range at 8 workers is the
			// first n/8 events, and past it at 2 workers starts at
			// ceil(n/2).
			if inHead && bad >= n/8 || !inHead && bad < (n+1)/2 {
				t.Fatalf("%s: bad event %d of %d is not where the case needs it", c.name, bad, n)
			}
			want := fmt.Sprintf("core: event %d: %s", bad, c.want)
			r := segmented(t, tr, 1, 1, false)
			for _, par := range []int{1, 2, 8} {
				_, err := core.AnalyzeStream(r, core.Config{Options: core.DefaultOptions(), ParallelSegments: par})
				if err == nil || err.Error() != want {
					t.Errorf("%s (head=%t), par=%d: err = %v, want %q", c.name, inHead, par, err, want)
				}
			}
		}
	}
}

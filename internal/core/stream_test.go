package core_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"critlock/internal/core"
	"critlock/internal/livetrace"
	"critlock/internal/report"
	"critlock/internal/segment"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/tracetest"
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
func requireIdentical(t *testing.T, mem, str *core.Analysis) {
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
	if mem.Composition() != str.Composition() {
		t.Errorf("composition differs:\n mem: %+v\n str: %+v", mem.Composition(), str.Composition())
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
		t.Run(c.workload+"/"+string(rune('0'+c.threads))+"t", func(t *testing.T) {
			tr := simTrace(t, c.workload, c.threads, c.seed)
			mem := core.ReferenceAnalysis(tr, core.DefaultOptions())
			n := len(tr.Events)

			segSizes := []int{n/7 + 1, 64}
			if n < 3000 {
				// Small traces earn the pathological shapes.
				segSizes = append(segSizes, 7, 1)
			}
			// check analyzes src with pass 3 in par ranges and a walk
			// window of window segments.
			check := func(src core.Source, par, window int, cfg core.Config, label string) {
				t.Helper()
				splitPass3(t, par)
				core.SetWalkWindow(t, window)
				str, err := core.AnalyzeSource(src, cfg)
				if err != nil {
					t.Fatalf("AnalyzeSource(%s): %v", label, err)
				}
				requireIdentical(t, mem, str)
				if t.Failed() {
					t.Fatalf("divergence at %s", label)
				}
			}
			for _, segEvents := range segSizes {
				for _, noMmap := range []bool{false, true} {
					r := segmented(t, tr, segEvents, 16, noMmap)
					for _, par := range []int{1, 2, 8} {
						check(core.StreamSource(r), par, 2, core.DefaultConfig(),
							fmt.Sprintf("seg=%d mmap=%t par=%d", segEvents, !noMmap, par))
					}
				}
			}
			// TraceSource views the same events as in-memory segments;
			// it must land on the same result through every knob.
			mt := core.TraceSource(tr)
			for _, par := range []int{1, 2, 8} {
				check(mt, par, core.DefaultWalkWindow, core.DefaultConfig(), fmt.Sprintf("trace par=%d", par))
			}
			// Walk-window sweep (the backward walk is sequential at
			// any parallelism; vary its residency separately).
			r := core.StreamSource(segmented(t, tr, segSizes[0], 16, false))
			for _, window := range []int{1, 2, 4} {
				check(r, 1, window, core.DefaultConfig(), fmt.Sprintf("window=%d", window))
				check(mt, 1, window, core.DefaultConfig(), fmt.Sprintf("trace window=%d", window))
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
	str, err := core.AnalyzeStream(r, core.DefaultConfig())
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	requireIdentical(t, mem, str)

	// The spiller's reader supports concurrent loads too: pass 3 in
	// four ranges must agree byte-for-byte.
	splitPass3(t, 4)
	par, err := core.AnalyzeStream(r, core.DefaultConfig())
	if err != nil {
		t.Fatalf("AnalyzeStream(par=4): %v", err)
	}
	requireIdentical(t, mem, par)
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

// TestTraceSourceSegmentBoundaries runs TraceSource on traces longer
// than three of its in-memory segments and not a multiple of their
// size, so every pass crosses segment boundaries and ends on a partial
// segment, at several pass parallelisms and with both hold accountings,
// validating first and beside the passes. The mixed trace has cond
// waits and blocked channel receives that straddle a segment boundary,
// and blocked joins: the waits pass 1 tallies.
func TestTraceSourceSegmentBoundaries(t *testing.T) {
	const memSegment = 4096
	mixed, err := tracetest.Mixed(40_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if condWait, recv := straddlingWaits(mixed, memSegment); condWait == 0 || recv == 0 {
		t.Fatalf("mixed: %d cond waits and %d blocked receives straddle a segment boundary; want some of each", condWait, recv)
	}
	for _, w := range []struct {
		name string
		tr   *trace.Trace
	}{{"uts", simTrace(t, "uts", 6, 1)}, {"mixed", mixed}} {
		tr := w.tr
		if n := len(tr.Events); n <= 3*memSegment || n%memSegment == 0 {
			t.Fatalf("%s: trace has %d events; want more than %d and not a multiple of %d", w.name, n, 3*memSegment, memSegment)
		}
		for _, clip := range []bool{true, false} {
			opts := core.Options{ClipHold: clip}
			ref := core.ReferenceAnalysis(tr, opts)
			if w.name == "mixed" && (ref.Totals.TotalCondWait == 0 || ref.Totals.TotalChanWait == 0 || !slices.ContainsFunc(ref.Threads, func(ts core.ThreadStats) bool { return ts.JoinWait > 0 })) {
				t.Fatalf("mixed: want cond, channel and join waits: %+v", ref.Totals)
			}
			for _, par := range []int{1, 2, 4, 8} {
				// Validating first at par 1, beside the passes otherwise
				// (on par Ps).
				label := fmt.Sprintf("%s clip=%t par=%d", w.name, clip, par)
				splitPass3(t, par)
				src := core.TraceSource(tr)
				if par > 1 {
					src = core.TraceSourceBesideFrom(tr, 1)
				}
				an, err := core.AnalyzeSource(src, core.Config{Options: opts})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if an.Trace.Events != nil || !reflect.DeepEqual(an.Trace.Threads, tr.Threads) ||
					!reflect.DeepEqual(an.Trace.Objects, tr.Objects) {
					t.Fatalf("%s: Analysis.Trace is not the analyzed trace's skeleton", label)
				}
				requireIdentical(t, ref, an)
				if t.Failed() {
					t.Fatalf("divergence at %s", label)
				}
			}
		}
	}
}

// straddlingWaits counts tr's cond waits whose begin and end, and its
// blocked channel receives whose wait (from the thread's previous
// event), lie in different segments of seg events.
func straddlingWaits(tr *trace.Trace, seg int) (condWaits, recvs int) {
	type key struct {
		thread trace.ThreadID
		obj    trace.ObjID
	}
	begin := map[key]int{}
	prev := map[trace.ThreadID]int{}
	for i, e := range tr.Events {
		switch e.Kind {
		case trace.EvCondWaitBegin:
			begin[key{e.Thread, e.Obj}] = i
		case trace.EvCondWaitEnd:
			if b, ok := begin[key{e.Thread, e.Obj}]; ok && b/seg != i/seg {
				condWaits++
			}
		case trace.EvChanRecv:
			if p, ok := prev[e.Thread]; ok && e.Arg&trace.ChanArgBlocked != 0 && p/seg != i/seg {
				recvs++
			}
		}
		prev[e.Thread] = i
	}
	return condWaits, recvs
}

// TestDefaultSplitMatchesReference: at the default configuration, a
// source with cores to spare (the gate lowered to every size) splits
// pass 3 into one range per P, and the analysis equals the reference
// and the one-range analysis with the gate closed: the same export
// bytes, slack, composition and hot windows. So does the analysis at
// 2 and 8 Ps, where pass 3 takes that many ranges and pass 1 and the
// walk read ahead. It covers mapped and buffered segment directories,
// TraceSource validating first and beside the passes, and one P, where
// nothing splits.
func TestDefaultSplitMatchesReference(t *testing.T) {
	mixed, err := tracetest.Mixed(40_000, 1) // channels, a cond, an RWMutex, a barrier
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		tr   *trace.Trace
	}{{"radiosity", simTrace(t, "radiosity", 8, 1)}, {"uts", simTrace(t, "uts", 6, 1)}, {"mixed", mixed}} {
		tr := w.tr
		if n := len(tr.Events); n < 3*4096 {
			t.Fatalf("%s: %d events, too few for three in-memory segments", w.name, n)
		}
		ref := core.ReferenceAnalysis(tr, core.DefaultOptions())
		mapped := segmented(t, tr, len(tr.Events)/9+1, 16, false)
		buffered := segmented(t, tr, len(tr.Events)/9+1, 16, true)
		for _, s := range []struct {
			label string
			src   core.Source
			segs  core.SegmentSource // what the passes read
		}{
			{"segdir", core.StreamSource(mapped), mapped},
			{"segdir nommap", core.StreamSource(buffered), buffered},
			{"trace validating first", core.TraceSource(tr), core.TraceSegments(tr)},
			{"trace validating beside", core.TraceSourceBesideFrom(tr, 1), core.TraceSegments(tr)},
		} {
			label := fmt.Sprintf("%s %s", w.name, s.label)
			cfg := core.DefaultConfig()
			readAhead(t, false)
			one := defaultSplitRun(t, s.src, s.segs, cfg, 1, label)
			readAhead(t, true)
			split := defaultSplitRun(t, s.src, s.segs, cfg, min(runtime.GOMAXPROCS(0), s.segs.NumSegments()), label)
			requireIdentical(t, ref, split.an)
			if split.export != one.export || !reflect.DeepEqual(split.slack, one.slack) {
				t.Errorf("%s: export or slack differ split and in one range", label)
			}
			if !reflect.DeepEqual(split.an.Windows(5), one.an.Windows(5)) || split.an.Composition() != one.an.Composition() {
				t.Errorf("%s: windows or composition differ split and in one range", label)
			}
			for _, par := range []int{2, 8} {
				plabel := fmt.Sprintf("%s par=%d", label, par)
				prev := runtime.GOMAXPROCS(par)
				got := defaultSplitRun(t, s.src, s.segs, cfg, min(par, s.segs.NumSegments()), plabel)
				runtime.GOMAXPROCS(prev)
				requireIdentical(t, ref, got.an)
				if got.export != one.export || !reflect.DeepEqual(got.slack, one.slack) {
					t.Errorf("%s: export or slack differ from one range", plabel)
				}
				if !reflect.DeepEqual(got.an.Windows(5), one.an.Windows(5)) || got.an.Composition() != one.an.Composition() {
					t.Errorf("%s: windows or composition differ from one range", plabel)
				}
			}
			prev := runtime.GOMAXPROCS(1)
			single := defaultSplitRun(t, s.src, s.segs, cfg, 1, label+" one P")
			runtime.GOMAXPROCS(prev)
			if single.export != one.export || !reflect.DeepEqual(single.slack, one.slack) {
				t.Errorf("%s: export or slack differ on one P", label)
			}
			if t.Failed() {
				t.Fatalf("divergence at %s", label)
			}
		}
	}
}

// splitRun is one analysis with what TestDefaultSplitMatchesReference
// compares of it.
type splitRun struct {
	an     *core.Analysis
	export string
	slack  *core.SlackAnalysis
}

// defaultSplitRun analyzes src under cfg, after checking that pass 3
// splits segs into ranges ranges, and computes the export and slack.
func defaultSplitRun(t *testing.T, src core.Source, segs core.SegmentSource, cfg core.Config, ranges int, label string) splitRun {
	t.Helper()
	if got := core.Pass3Ranges(segs); got != ranges {
		t.Fatalf("%s: pass 3 splits into %d ranges, want %d", label, got, ranges)
	}
	an, err := core.AnalyzeSource(src, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	exp, err := json.Marshal(report.BuildExport("", "", true, an))
	if err != nil {
		t.Fatal(err)
	}
	slack, err := an.Slack(segs)
	if err != nil {
		t.Fatalf("%s: slack: %v", label, err)
	}
	return splitRun{an, string(exp), slack}
}

// chanHandoffTrace puts a blocked buffered send and a blocked receive
// of a closed channel on the critical path, which the sim workloads do
// not: main's second send on the one-slot channel c waits for worker
// w1's first receive, main later closes done, and worker w2 — blocked
// receiving from done — finishes last. main joins w1 long after w1
// exited, a join that did not block although its end trails its begin,
// so no join wait may count it.
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
	b.Join(main, w1, 41, 43)
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
		an, err := core.AnalyzeSource(src, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireIdentical(t, ref, an)
	}
	check(core.TraceSource(tr), "trace")
	for _, seg := range []int{1, 7} {
		check(core.StreamSource(segmented(t, tr, seg, 4, false)), fmt.Sprintf("seg=%d", seg))
	}
}

// TestCompositionMatchesHolds holds Analysis.Composition, which reads
// the hot-interval index, to the per-thread holds formula of the
// reference (ReferenceComposition): every workload at seeds 1–3 on the
// simulator, and live runs of every workload but the two planted-hazard
// ones (another interleaving of those hangs by design), plus a hold
// across a wait piece, which only the executed pieces may count, at
// par 1/2/8 with clipping on and off, through TraceSource and a segment
// directory.
func TestCompositionMatchesHolds(t *testing.T) {
	t.Run("hold-over-wait", func(t *testing.T) {
		// main holds L over a contended obtain of ghost, whose releaser
		// is not in the trace: [10, 30] is a wait piece inside L's hold.
		b := trace.NewBuilder()
		main := b.Thread("main", trace.NoThread)
		l, ghost := b.Mutex("L"), b.Mutex("ghost")
		b.Start(0, main)
		b.Event(5, main, trace.EvLockAcquire, l, 0)
		b.Event(5, main, trace.EvLockObtain, l, 0)
		b.CS(main, ghost, 10, 30, 40)
		b.Event(45, main, trace.EvLockRelease, l, 0)
		b.Exit(50, main)
		tr := b.Trace()
		want := core.Composition{Total: 50, LockHold: 20, Compute: 10, Wait: 20}
		if got := core.ReferenceComposition(tr); got != want {
			t.Fatalf("reference composition %+v, want %+v", got, want)
		}
		requireCompositionMatchesHolds(t, tr)
	})
	for _, name := range workloads.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			name, seed := name, seed
			t.Run(fmt.Sprintf("sim/%s/%d", name, seed), func(t *testing.T) {
				requireCompositionMatchesHolds(t, simTrace(t, name, 0, seed))
			})
		}
	}
	for _, name := range workloads.Names() {
		if name == "deadlockprone" || name == "lostsignal" {
			continue
		}
		t.Run("live/"+name, func(t *testing.T) {
			spec, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			rt := livetrace.New(livetrace.Config{Seed: 1})
			tr, _, err := workloads.Run(rt, spec, workloads.Params{Threads: 3, Seed: 1, Scale: 0.05})
			if err != nil {
				t.Fatalf("live run: %v", err)
			}
			requireCompositionMatchesHolds(t, tr)
		})
	}
}

// requireCompositionMatchesHolds analyzes tr through TraceSource and a
// segment directory of nine or more segments at par 1/2/8, clipping on
// and off, and requires every composition to equal the reference's.
func requireCompositionMatchesHolds(t *testing.T, tr *trace.Trace) {
	t.Helper()
	want := core.ReferenceComposition(tr)
	sources := []struct {
		name string
		src  core.Source
	}{
		{"trace", core.TraceSource(tr)},
		{"segdir", core.StreamSource(segmented(t, tr, len(tr.Events)/9+1, 16, false))},
	}
	for _, clip := range []bool{true, false} {
		for _, par := range []int{1, 2, 8} {
			splitPass3(t, par)
			cfg := core.Config{Options: core.Options{ClipHold: clip}}
			for _, s := range sources {
				an, err := core.AnalyzeSource(s.src, cfg)
				if err != nil {
					t.Fatalf("%s clip=%t par=%d: %v", s.name, clip, par, err)
				}
				if got := an.Composition(); got != want {
					t.Fatalf("%s clip=%t par=%d: composition %+v, want %+v", s.name, clip, par, got, want)
				}
			}
		}
	}
}

// TestCompositionAnySource: a segment directory analyzed at the default
// configuration reports the same composition as the trace in memory.
// Composition needs no option on any source.
func TestCompositionAnySource(t *testing.T) {
	tr := simTrace(t, "radiosity", 8, 1)
	mem, err := core.AnalyzeSource(core.TraceSource(tr), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	str, err := core.AnalyzeSource(core.StreamSource(segmented(t, tr, 0, 0, false)), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := mem.Composition()
	if want.LockHold <= 0 {
		t.Fatalf("radiosity's composition has no lock hold: %+v", want)
	}
	if got := str.Composition(); got != want {
		t.Errorf("segment directory composition %+v, want %+v (TraceSource)", got, want)
	}
}

// TestAnalyzeStreamRejectsUnknownObjects: segment input is not
// validated, and segment files accept lock and channel events naming an
// object past the skeleton's table, so pass 1 must fail such a trace
// with an error whatever pass 3's range count (pass 1 is one range at
// all of them), instead of letting pass 3 index its per-object state
// out of range.
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
		for _, par := range []int{1, 2, 8} {
			splitPass3(t, par)
			_, err := core.AnalyzeStream(r, core.DefaultConfig())
			if err == nil || !strings.Contains(err.Error(), "references object 99") {
				t.Errorf("%s, par=%d: err = %v, want an out-of-range object error", name, par, err)
			}
		}
	}
}

// TestLockErrorsAtAnyParallelism: pass 3 rejects an unpaired release,
// an unpaired obtain and an obtain with no acquire with the same error
// in 1, 2 and 8 ranges (one range per P, with the read-ahead on from
// 2), whether the bad event lies in pass 3's head range, which fails
// on the spot, or past it, where the merge's replay of the relayed
// event fails. Pass 3 is the only pass that relays; pass 1 is always
// one range.
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
				splitPass3(t, par)
				if ranges := core.Pass3Ranges(r); ranges != par {
					t.Fatalf("pass 3 splits into %d ranges at %d Ps", ranges, par)
				}
				_, err := core.AnalyzeStream(r, core.DefaultConfig())
				if err == nil || err.Error() != want {
					t.Errorf("%s (head=%t), par=%d: err = %v, want %q", c.name, inHead, par, err, want)
				}
			}
		}
	}
}

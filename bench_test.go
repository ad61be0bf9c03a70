// Benchmarks: one per reproduced paper table/figure (running the full
// pipeline — workload simulation, trace collection, critical-path
// analysis, report rendering) plus component benchmarks for the trace
// codec, the collector, the simulator and the analyzer itself.
//
//	go test -bench=. -benchmem
//
// Figure/table benches use Quick mode (reduced sweeps) so a full bench
// run stays laptop-sized; `claexp -all` runs the full-size versions.
package critlock_test

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"critlock"
	"critlock/internal/core"
	"critlock/internal/experiments"
	"critlock/internal/segment"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Seed: 1, Contexts: 24, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res == nil {
			b.Fatal("nil result")
		}
	}
}

func BenchmarkTable1Environment(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable2Metrics(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkFig1Concept(b *testing.B)          { benchExperiment(b, "fig1") }
func BenchmarkFig6Micro(b *testing.B)            { benchExperiment(b, "fig6") }
func BenchmarkFig7Timeline(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8AppSurvey(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9RadiositySweep(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10Contention(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11CSSize(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12Optimization(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13OptimizedSize(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14OptimizedCont(b *testing.B)   { benchExperiment(b, "fig14") }
func BenchmarkTSPOptimization(b *testing.B)      { benchExperiment(b, "tsp") }
func BenchmarkAblationWakeupOrder(b *testing.B)  { benchExperiment(b, "ablation-fairness") }
func BenchmarkAblationHoldClipping(b *testing.B) { benchExperiment(b, "ablation-clipping") }

// --- component benchmarks ---

// largeTrace builds a synthetic convoy trace with roughly n events.
func largeTrace(n int) *trace.Trace {
	b := trace.NewBuilder()
	const threads = 16
	var tids []trace.ThreadID
	root := b.Thread("t0", trace.NoThread)
	tids = append(tids, root)
	for i := 1; i < threads; i++ {
		tids = append(tids, b.Thread(fmt.Sprintf("t%d", i), root))
	}
	m := b.Mutex("hot")
	m2 := b.Mutex("cold")
	for _, tid := range tids {
		b.Start(0, tid)
	}
	// Interleaved critical sections: thread k takes the hot lock in
	// round-robin order (a convoy), plus a private cold section.
	iters := n / (threads * 6)
	tm := trace.Time(0)
	for it := 0; it < iters; it++ {
		for k, tid := range tids {
			acq := tm + trace.Time(k)
			obt := tm + trace.Time(10*(k+1))
			rel := obt + 9
			b.CS(tid, m, acq, obt, rel)
			b.CS(tid, m2, rel, rel, rel+1)
		}
		tm += trace.Time(10*threads + 20)
	}
	for _, tid := range tids {
		b.Exit(tm+1, tid)
	}
	return b.Trace()
}

// threadBuffers partitions a trace's events into per-thread buffers in
// emission order — the shape the collector holds before Finish.
func threadBuffers(tr *trace.Trace) [][]trace.Event {
	byThread := make(map[trace.ThreadID][]trace.Event)
	var order []trace.ThreadID
	for _, e := range tr.Events {
		if _, ok := byThread[e.Thread]; !ok {
			order = append(order, e.Thread)
		}
		byThread[e.Thread] = append(byThread[e.Thread], e)
	}
	bufs := make([][]trace.Event, 0, len(order))
	for _, tid := range order {
		bufs = append(bufs, byThread[tid])
	}
	return bufs
}

// BenchmarkMergeVsSort compares the two ways of flattening per-thread
// event buffers into one globally ordered stream: the k-way heap merge
// (what Collector.Finish does now) against a global sort.Slice over the
// concatenation (what it did before).
func BenchmarkMergeVsSort(b *testing.B) {
	tr := largeTrace(200_000)
	bufs := threadBuffers(tr)
	n := len(tr.Events)

	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(n))
		runs := make([][]trace.Event, len(bufs))
		for i := 0; i < b.N; i++ {
			copy(runs, bufs)
			out := trace.MergeSorted(runs)
			if len(out) != n {
				b.Fatal("short merge")
			}
		}
	})
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			flat := make([]trace.Event, 0, n)
			for _, buf := range bufs {
				flat = append(flat, buf...)
			}
			sort.Slice(flat, func(x, y int) bool { return trace.Less(flat[x], flat[y]) })
			if len(flat) != n {
				b.Fatal("short sort")
			}
		}
	})
}

// BenchmarkRunAllParallel runs a small experiment set through the
// worker-pool runner at increasing parallelism. On a single-core box
// the times converge; the benchmark still exercises the pool, the
// deterministic ordering and the per-outcome overhead.
func BenchmarkRunAllParallel(b *testing.B) {
	ids := []string{"table2", "fig1", "fig6"}
	exps := make([]experiments.Experiment, 0, len(ids))
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		exps = append(exps, e)
	}
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			opts := experiments.Options{Seed: 1, Contexts: 24, Quick: true, Parallelism: j}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				outcomes := experiments.RunSet(exps, opts, j)
				if err := experiments.FirstError(outcomes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAnalyzeLargeTrace(b *testing.B) {
	tr := largeTrace(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := core.Analyze(tr, core.Options{ClipHold: true})
		if err != nil {
			b.Fatal(err)
		}
		if an.CP.Length == 0 {
			b.Fatal("empty critical path")
		}
	}
	b.SetBytes(int64(len(tr.Events)))
}

// BenchmarkAnalyzeStream2M drives the analysis pipeline over a
// 2M-event segmented trace: segment decode, forward annotation pass,
// windowed backward walk, forward metric pass. The inmemory
// sub-benchmark runs the same passes over the event slice through
// TraceSource (validation, in-memory segments, composition retained)
// for comparison. The segmented side's working set is bounded by the
// walk window plus the critical-path output.
func BenchmarkAnalyzeStream2M(b *testing.B) {
	tr := largeTrace(2_000_000)
	dir := b.TempDir()
	if err := segment.WriteTrace(dir, tr, segment.Options{}); err != nil {
		b.Fatal(err)
	}
	r, err := segment.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.Run("stream", func(b *testing.B) {
		cfg := core.Config{Options: core.Options{ClipHold: true}}
		b.ReportAllocs()
		b.SetBytes(int64(len(tr.Events)))
		peak := measurePeakHeap(b, func() {
			if _, err := core.AnalyzeStream(r, cfg); err != nil {
				b.Fatal(err)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			an, err := core.AnalyzeStream(r, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if an.CP.Length == 0 {
				b.Fatal("empty critical path")
			}
		}
		b.ReportMetric(peak, "peak-B")
	})
	b.Run("inmemory", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(tr.Events)))
		peak := measurePeakHeap(b, func() {
			if _, err := core.Analyze(tr, core.Options{ClipHold: true}); err != nil {
				b.Fatal(err)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			an, err := core.Analyze(tr, core.Options{ClipHold: true})
			if err != nil {
				b.Fatal(err)
			}
			if an.CP.Length == 0 {
				b.Fatal("empty critical path")
			}
		}
		b.ReportMetric(peak, "peak-B")
	})
}

// measurePeakHeap runs fn once outside the timed loop while sampling
// the live heap, and returns the peak growth over the pre-fn baseline
// (reported as "peak-B"; must be reported after the timed loop because
// ResetTimer clears extra metrics). allocs/op and B/op are cumulative —
// every byte ever allocated — so they cannot distinguish a bounded
// working set with append churn from a resident O(n) footprint. GC
// percent is dropped during the sample so HeapAlloc tracks live data,
// not dead garbage.
//
// The baseline is subtracted because the caller may hold the full
// in-memory trace alive for a sibling sub-benchmark; what we want is
// how much the analysis itself keeps resident at its worst moment.
func measurePeakHeap(b *testing.B, fn func()) float64 {
	b.Helper()
	prev := debug.SetGCPercent(20)
	defer debug.SetGCPercent(prev)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak atomic.Uint64
	peak.Store(base)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				if s.HeapAlloc > peak.Load() {
					peak.Store(s.HeapAlloc)
				}
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return float64(peak.Load() - base)
}

func BenchmarkTraceCodecBinaryWrite(b *testing.B) {
	tr := largeTrace(50_000)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WriteBinary(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkTraceCodecBinaryRead decodes a small trace and one the size
// of the benchmark's 2M-event stored traces, whose event slice alone
// is 80 MB.
func BenchmarkTraceCodecBinaryRead(b *testing.B) {
	for _, n := range []struct {
		name   string
		events int
	}{{"events=50k", 50_000}, {"events=2M", 2_000_000}} {
		b.Run(n.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, largeTrace(n.events)); err != nil {
				b.Fatal(err)
			}
			raw := buf.Bytes()
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := trace.ReadBinary(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTraceCodecJSONWrite(b *testing.B) {
	tr := largeTrace(50_000)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WriteJSON(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkCollectorEmit(b *testing.B) {
	col := trace.NewCollector()
	buf := col.RegisterThread("bench", trace.NoThread)
	obj := col.RegisterObject(trace.ObjMutex, "m", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Emit(trace.Time(i), trace.EvLockAcquire, obj, 0)
	}
}

// BenchmarkSimMutexHandoff measures the simulator's cost per
// lock/unlock pair under a 8-thread convoy.
func BenchmarkSimMutexHandoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(sim.Config{Contexts: 8, Seed: 1})
		m := s.NewMutex("m")
		_, _, err := s.Run(func(p critlock.Proc) {
			var kids []critlock.Thread
			for w := 0; w < 8; w++ {
				kids = append(kids, p.Go("w", func(q critlock.Proc) {
					for j := 0; j < 500; j++ {
						q.Lock(m)
						q.Compute(10)
						q.Unlock(m)
					}
				}))
			}
			for _, k := range kids {
				p.Join(k)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadRadiosity24 runs the headline workload end to end
// (simulate + analyze), the unit of every radiosity figure.
func BenchmarkWorkloadRadiosity24(b *testing.B) {
	spec, err := workloads.Get("radiosity")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(sim.Config{Contexts: 24, Seed: 1})
		tr, _, err := workloads.Run(s, spec, workloads.Params{Threads: 24, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.AnalyzeDefault(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockTableRender measures the reporting layer.
func BenchmarkLockTableRender(b *testing.B) {
	tr := largeTrace(20_000)
	an, err := core.AnalyzeDefault(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = critlock.LockTable(an, 0).String()
	}
}

// --- extension benchmarks ---

func BenchmarkSlackAnalysis(b *testing.B) {
	tr := largeTrace(100_000)
	an, err := core.AnalyzeDefault(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sa, err := an.Slack(core.TraceSegments(tr)); err != nil || len(sa.Locks) == 0 {
			b.Fatal("no slack results", err)
		}
	}
	b.SetBytes(int64(len(tr.Events)))
}

func BenchmarkOnlinePredictor(b *testing.B) {
	tr := largeTrace(100_000)
	b.ReportAllocs()
	b.SetBytes(int64(len(tr.Events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPredictor()
		if err := p.ObserveAll(core.TraceSegments(tr)); err != nil {
			b.Fatal(err)
		}
		if p.Top() == -1 {
			b.Fatal("no prediction")
		}
	}
}

func BenchmarkWindowsAnalysis(b *testing.B) {
	tr := largeTrace(100_000)
	an, err := core.AnalyzeDefault(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := an.Windows(16); len(w) != 16 {
			b.Fatal("bad windows")
		}
	}
}

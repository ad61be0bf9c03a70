package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"critlock"
	"critlock/internal/hazard"
	"critlock/internal/segment"
	"critlock/internal/serve"
	"critlock/internal/trace"
)

// The traced run's per-layer numbers come from the benchmark's own
// files: wrappers and observers around the calls into each layer, never
// instrumentation inside the product. Every workload sweeps the same
// layers over its own stored traces, so every per-layer metric is
// measured on every workload.

// timedReader is a segment reader that times every segment decode, in
// whichever form the caller asks for (columns for the analysis passes,
// events for the hazard pass).
type timedReader struct {
	*segment.Reader
	loads, events, nanos atomic.Int64
}

func (t *timedReader) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	start := time.Now()
	n, err := t.Reader.LoadColumns(i, cols)
	t.note(start, cols.Len())
	return n, err
}

func (t *timedReader) LoadSegment(i int, buf []trace.Event) ([]trace.Event, error) {
	start := time.Now()
	evs, err := t.Reader.LoadSegment(i, buf)
	t.note(start, len(evs))
	return evs, err
}

func (t *timedReader) note(start time.Time, events int) {
	t.nanos.Add(int64(time.Since(start)))
	t.loads.Add(1)
	t.events.Add(int64(events))
}

// openTimed opens a segment directory, timing the manifest read.
func openTimed(dir string) (*timedReader, time.Duration, error) {
	start := time.Now()
	r, err := segment.OpenWith(dir, segment.ReadOptions{})
	if err != nil {
		return nil, 0, err
	}
	return &timedReader{Reader: r}, time.Since(start), nil
}

// phaseTimes is an analysis Observer that sums phase durations and
// counts the segment loads each phase made (from Progress snapshots).
type phaseTimes struct {
	dur       map[string]time.Duration
	loads     map[string]int64
	last      critlock.Progress
	startSegs int64
}

func newPhaseTimes() *phaseTimes {
	return &phaseTimes{dur: map[string]time.Duration{}, loads: map[string]int64{}}
}

func (p *phaseTimes) PhaseStart(string) { p.startSegs = p.last.Segments }

func (p *phaseTimes) PhaseDone(phase string, d time.Duration) {
	p.dur[phase] += d
	p.loads[phase] += p.last.Segments - p.startSegs
}

func (p *phaseTimes) OnProgress(pr critlock.Progress) { p.last = pr }

// sweepRep accumulates one pass of the sweep over a workload's traces.
type sweepRep struct {
	opens                         int
	openDur, tracedOp, plainOp    time.Duration
	streamAn, hazardDur, hazLoads time.Duration
	loads, loadEvents             int64
	loadNanos                     time.Duration
	segments                      int
	stream, inmem                 *phaseTimes
	allocBytes                    uint64
	readDur                       time.Duration
	readEvents                    int
}

// layerSweep measures every analysis layer on inputs until budget is
// spent (at least one pass): segment open and decode, the three
// streaming passes, the in-memory pipeline's phases, the hazard pass,
// binary decoding, and the overhead of this measuring itself. Once per
// run it also measures the parallel-pass speedup and, when post is set,
// the server's handler time for each input uploaded whole.
func layerSweep(res *result, inputs []traceInput, budget time.Duration, post bool) error {
	speedup, err := par2Speedup(inputs)
	if err != nil {
		return err
	}
	res.add(single("core.par2_pass13_speedup", "ratio", speedup))
	if post {
		handler, err := postInputs(res, inputs)
		if err != nil {
			return err
		}
		res.add(summarize("serve.handler_ms_p50", "ms", handler))
	}

	var reps []*sweepRep
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < budget {
		rep := &sweepRep{stream: newPhaseTimes(), inmem: newPhaseTimes()}
		for _, in := range inputs {
			res.Attempted++
			if err := rep.measure(in); err != nil {
				res.fail("%s: %v", in.name, err)
			}
		}
		reps = append(reps, rep)
	}

	series := func(name, unit string, f func(r *sweepRep) float64) metric {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return summarize(name, unit, xs)
	}
	phase := func(p *phaseTimes, name string) float64 { return ms(p.dur[name]) }
	res.add(
		series("segment.open_ms", "ms", func(r *sweepRep) float64 { return ms(r.openDur) / float64(r.opens) }),
		series("segment.decode_ns_per_event", "ns", func(r *sweepRep) float64 { return float64(r.loadNanos) / float64(r.loadEvents) }),
		series("segment.loads_per_segment", "count", func(r *sweepRep) float64 { return float64(r.loads) / float64(r.segments) }),
		series("core.pass1_ms", "ms", func(r *sweepRep) float64 { return phase(r.stream, "pass1") }),
		series("core.walk_ms", "ms", func(r *sweepRep) float64 { return phase(r.stream, "walk") }),
		series("core.pass3_ms", "ms", func(r *sweepRep) float64 { return phase(r.stream, "pass3") }),
		series("core.walk_loads", "count", func(r *sweepRep) float64 { return float64(r.stream.loads["walk"]) }),
		series("core.validate_ms", "ms", func(r *sweepRep) float64 { return phase(r.inmem, "validate") }),
		series("core.index_ms", "ms", func(r *sweepRep) float64 { return phase(r.inmem, "index") }),
		series("core.inmem_walk_ms", "ms", func(r *sweepRep) float64 { return phase(r.inmem, "walk") }),
		series("core.metrics_ms", "ms", func(r *sweepRep) float64 { return phase(r.inmem, "metrics") }),
		series("core.alloc_mb_per_run", "MB", func(r *sweepRep) float64 { return float64(r.allocBytes) / 1e6 }),
		series("hazard.self_ms", "ms", func(r *sweepRep) float64 { return ms(r.hazardDur - r.hazLoads) }),
		series("hazard.share", "ratio", func(r *sweepRep) float64 { return float64(r.hazardDur) / float64(r.streamAn) }),
		series("hazard.share_base_ms", "ms", func(r *sweepRep) float64 { return ms(r.streamAn) }),
		series("trace.read_binary_ns_per_event", "ns", func(r *sweepRep) float64 { return float64(r.readDur) / float64(r.readEvents) }),
		series("bench.trace_overhead", "ratio", func(r *sweepRep) float64 { return float64(r.tracedOp)/float64(r.plainOp) - 1 }),
	)
	return nil
}

// measure runs the segdir and file sequences on one input, once with
// every wrapper attached and once plainly.
func (r *sweepRep) measure(in traceInput) error {
	opStart := time.Now()
	rd, openDur, err := openTimed(in.segdir)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	an, err := critlock.Analyze(critlock.SegmentsSource(rd), critlock.WithObserver(r.stream))
	anDur := time.Since(t0)
	runtime.ReadMemStats(&after)
	rd.Close()
	if err != nil {
		return err
	}
	hrd, hOpenDur, err := openTimed(in.segdir)
	if err != nil {
		return err
	}
	t1 := time.Now()
	_, err = hazard.FromSegments(hrd, 1)
	hzDur := time.Since(t1)
	hrd.Close()
	if err != nil {
		return err
	}
	r.tracedOp += time.Since(opStart)
	if got := topLock(an); got != in.expectTop {
		return fmt.Errorf("top lock %q, want %q", got, in.expectTop)
	}

	r.opens += 2
	r.openDur += openDur + hOpenDur
	r.streamAn += anDur
	r.hazardDur += hzDur
	r.hazLoads += time.Duration(hrd.nanos.Load())
	r.loads += rd.loads.Load() + hrd.loads.Load()
	r.loadEvents += rd.events.Load() + hrd.events.Load()
	r.loadNanos += time.Duration(rd.nanos.Load() + hrd.nanos.Load())
	r.segments += rd.NumSegments()
	r.allocBytes += after.TotalAlloc - before.TotalAlloc

	t2 := time.Now()
	if _, _, _, err := segdirOp(in.segdir); err != nil {
		return err
	}
	r.plainOp += time.Since(t2)

	f, err := os.Open(in.cltr)
	if err != nil {
		return err
	}
	defer f.Close()
	t3 := time.Now()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		return err
	}
	r.readDur += time.Since(t3)
	r.readEvents += len(tr.Events)
	_, err = critlock.Analyze(critlock.TraceSource(tr), critlock.WithObserver(r.inmem))
	return err
}

// par2Speedup is the time of streaming passes 1 and 3 with one worker
// over their time with two (WithParallelSegments), summed over inputs,
// as the ratio of medians of three alternating runs each.
func par2Speedup(inputs []traceInput) (float64, error) {
	var one, two []float64
	for rep := 0; rep < 3; rep++ {
		for _, par := range [][2]int{{1, 2}, {2, 1}}[rep%2] {
			var total time.Duration
			for _, in := range inputs {
				p := newPhaseTimes()
				if _, err := critlock.Analyze(critlock.SegmentDirSource(in.segdir),
					critlock.WithParallelSegments(par), critlock.WithObserver(p)); err != nil {
					return 0, err
				}
				total += p.dur["pass1"] + p.dur["pass3"]
			}
			if par == 1 {
				one = append(one, secs(total))
			} else {
				two = append(two, secs(total))
			}
		}
	}
	return summarize("", "", one).Value / summarize("", "", two).Value, nil
}

// postInputs uploads each input's .cltr three times to an in-process
// analysis server, each time with a fresh stamp so the report cache
// misses, and returns the handler times in ms.
func postInputs(res *result, inputs []traceInput) ([]float64, error) {
	srv := serve.New(serve.Options{MaxConcurrent: 2})
	var handler []float64
	for _, in := range inputs {
		f, err := os.Open(in.cltr)
		if err != nil {
			return nil, err
		}
		tr, err := trace.ReadBinary(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		up, err := newUpload(tr, in.expectTop)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 3; i++ {
			res.Attempted++
			d, err := serveDirect(srv, up, fmt.Sprintf("sweep-%d", i), false)
			if err != nil {
				res.fail("upload of %s: %v", in.name, err)
				continue
			}
			handler = append(handler, ms(d))
		}
	}
	return handler, nil
}

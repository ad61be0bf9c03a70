package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"critlock/internal/hazard"
	"critlock/internal/report"
	"critlock/internal/trace"
)

// traceKind is one of the two trace-analysis workloads: how its trace
// is made and which lock must top its analysis.
type traceKind struct {
	name      string
	expectTop string
	gen       func(e *env) (*trace.Trace, error)
}

var (
	// convoyKind does the least synchronization work per event, so
	// segment decode and per-pass overhead dominate and the hazard fold
	// has almost nothing to do.
	convoyKind = traceKind{"convoy_2m", "hot", func(e *env) (*trace.Trace, error) {
		return convoyTrace(e.size.events, rand.New(rand.NewSource(e.seed))), nil
	}}
	// mixedKind exercises channel and cond waker pairing in pass 1 and
	// the hazard machine's cross-thread hold inheritance.
	mixedKind = traceKind{"mixed_2m", "mixed.hot", func(e *env) (*trace.Trace, error) {
		return mixedTrace(e.size.events, e.seed)
	}}
)

// runTraceWorkload runs convoy_2m or mixed_2m. Each iteration is what a
// user of the CLI runs on a stored trace: `cla -hazards -segdir DIR`
// (primary_ms) and then `cla FILE.cltr` (secondary_ms), one caller in a
// closed loop, then three runs of the calibration kernel (calib.go).
func runTraceWorkload(e *env, k traceKind, traced bool) (*result, error) {
	res := &result{Workload: k.name, Traced: traced}
	var (
		in                                       traceInput
		setupS, genS, storeS, segMBs, nsPerEvent []float64
	)
	for s := 0; s < e.size.setups; s++ {
		dir := filepath.Join(e.work, fmt.Sprintf("setup-%d", s))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		settle()
		start := time.Now()
		tr, err := k.gen(e)
		if err != nil {
			return nil, fmt.Errorf("generating the trace: %w", err)
		}
		gen := time.Since(start)
		var segT time.Duration
		var segBytes int64
		in, segT, segBytes, err = storeTrace(dir, k.name, tr)
		if err != nil {
			return nil, err
		}
		total := time.Since(start)
		setupS = append(setupS, secs(total))
		genS = append(genS, secs(gen))
		storeS = append(storeS, secs(total-gen))
		segMBs = append(segMBs, float64(segBytes)/1e6/secs(segT))
		nsPerEvent = append(nsPerEvent, float64(gen)/float64(in.events))
		if s < e.size.setups-1 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	in.expectTop = k.expectTop

	if traced {
		res.add(
			summarize("setup.gen_s", "s", genS),
			summarize("setup.prepare_s", "s", storeS),
			single("record.events", "count", float64(in.events)),
			summarize("record.ns_per_event", "ns", nsPerEvent),
			summarize("record.flush_s", "s", storeS),
			summarize("segment.write_mb_s", "MB/s", segMBs),
		)
		return res, layerSweep(res, []traceInput{in}, e.seconds, true)
	}

	var analyzeMS, primary, secondary, calib []float64
	var first *report.Export
	settle()
	start := time.Now()
	for i := 0; i < warmup+minSamples || time.Since(start) < e.seconds; i++ {
		res.Attempted++
		t0 := time.Now()
		an, hz, analyzeDur, err := segdirOp(in.segdir)
		segdirDur := time.Since(t0)
		if err != nil {
			res.fail("iteration %d: %v", i, err)
			continue
		}
		t1 := time.Now()
		tr, fileAn, err := fileOp(in.cltr)
		fileDur := time.Since(t1)
		if err != nil {
			res.fail("iteration %d: %v", i, err)
			continue
		}

		segExp, fileExp := exportOf(an), exportOf(fileAn)
		switch {
		case topLock(an) != in.expectTop:
			res.fail("iteration %d: top lock %q, want %q", i, topLock(an), in.expectTop)
			continue
		case first == nil:
			// Once per run, the full byte comparison and the hazard
			// differential; later iterations compare against these.
			if err := checkFirst(segExp, fileExp, hz, tr); err != nil {
				res.fail("iteration %d: %v", i, err)
				continue
			}
			first = segExp
		case !sameExport(segExp, fileExp):
			res.fail("iteration %d: segdir and file exports differ", i)
			continue
		case !sameExport(segExp, first):
			res.fail("iteration %d: export differs from the first iteration's", i)
			continue
		}
		calib = append(calib, calibrate(3)...)
		if i >= warmup {
			analyzeMS = append(analyzeMS, ms(analyzeDur))
			primary = append(primary, ms(segdirDur))
			secondary = append(secondary, ms(fileDur))
		}
	}

	// The peak lands in two modes 2 MB apart, depending on where the GC
	// cycles fall; the highest of three samples is what a run may need,
	// and it rarely flips, where the median of three would.
	first = nil
	var peaks []float64
	for i := 0; i < 3; i++ {
		var err error
		peaks = append(peaks, peakHeapMB(func() { _, _, _, err = segdirOp(in.segdir) }))
		if err != nil {
			return nil, err
		}
	}
	peak := summarize("peak_mb", "MB", peaks)
	peak.Value = percentile(peak.Samples, 1)
	res.add(
		summarize("setup_s", "s", setupS),
		relative("primary_rel", primary, calib),
		relative("secondary_rel", secondary, calib),
		peak,
		summarize("primary_ms", "ms", primary),
		summarize("secondary_ms", "ms", secondary),
		summarize("analyze_ms", "ms", analyzeMS),
		summarize("host.calib_ms", "ms", calib),
	)
	return res, nil
}

// checkFirst holds the segdir export byte-identical to the file export
// and the streamed hazard report equal to the in-memory one.
func checkFirst(segExp, fileExp *report.Export, hz *hazard.Report, tr *trace.Trace) error {
	a, err := exportDigest(segExp)
	if err != nil {
		return err
	}
	b, err := exportDigest(fileExp)
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("segdir and file JSON exports differ")
	}
	want, err := hazard.FromTrace(tr)
	if err != nil {
		return fmt.Errorf("hazard analysis of the file: %w", err)
	}
	if !reflect.DeepEqual(hz, want) {
		return fmt.Errorf("FromSegments and FromTrace disagree (%d vs %d hazards)", hz.Total(), want.Total())
	}
	return nil
}

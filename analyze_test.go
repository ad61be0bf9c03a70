package critlock_test

import (
	"reflect"
	"testing"

	"critlock"
	"critlock/internal/segment"
)

// workloadTrace builds a deterministic trace of one modelled workload.
func workloadTrace(t *testing.T, name string, threads int) *critlock.Trace {
	t.Helper()
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, name, critlock.WorkloadParams{Threads: threads, Seed: 1})
	if err != nil {
		t.Fatalf("running %s: %v", name, err)
	}
	return tr
}

// TestAnalyzeSourcesAgree: the unified Analyze must produce identical
// results whether the events arrive in memory (TraceSource) or stream
// from a segment directory (SegmentDirSource) — same critical path,
// same lock and thread statistics, same totals. Both sources run the
// same passes, so this pins the source adapters; what the passes
// compute is pinned by the reference oracle in
// internal/core/reference_test.go (TestAnalyzeStreamMatchesInMemory
// runs micro, tsp and waternsq through both sources against it).
func TestAnalyzeSourcesAgree(t *testing.T) {
	for _, tc := range []struct {
		workload string
		threads  int
	}{
		{"micro", 4},
		{"tsp", 6},
		{"waternsq", 4},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			tr := workloadTrace(t, tc.workload, tc.threads)

			mem, err := critlock.Analyze(critlock.TraceSource(tr))
			if err != nil {
				t.Fatalf("TraceSource: %v", err)
			}

			dir := t.TempDir()
			if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 64}); err != nil {
				t.Fatalf("writing segments: %v", err)
			}
			var snapshots int
			streamed, err := critlock.Analyze(critlock.SegmentDirSource(dir),
				critlock.WithProgress(func(critlock.Progress) { snapshots++ }))
			if err != nil {
				t.Fatalf("SegmentDirSource: %v", err)
			}

			if !reflect.DeepEqual(mem.CP, streamed.CP) {
				t.Errorf("critical paths differ between sources")
			}
			if !reflect.DeepEqual(mem.Locks, streamed.Locks) {
				t.Errorf("lock statistics differ between sources")
			}
			if !reflect.DeepEqual(mem.Threads, streamed.Threads) {
				t.Errorf("thread statistics differ between sources")
			}
			if !reflect.DeepEqual(mem.Totals, streamed.Totals) {
				t.Errorf("totals differ between sources")
			}
			if snapshots == 0 {
				t.Errorf("WithProgress observer never fired")
			}
		})
	}
}

// TestObserverDoesNotChangeResults pins the instrumentation invariant:
// attaching observers must not alter any result.
func TestObserverDoesNotChangeResults(t *testing.T) {
	tr := workloadTrace(t, "micro", 4)

	plain, err := critlock.Analyze(critlock.TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	observed, err := critlock.Analyze(critlock.TraceSource(tr),
		critlock.WithProgress(func(p critlock.Progress) {
			if len(phases) == 0 || phases[len(phases)-1] != p.Phase {
				phases = append(phases, p.Phase)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Locks, observed.Locks) || !reflect.DeepEqual(plain.CP, observed.CP) {
		t.Errorf("observation changed analysis results")
	}
	want := []string{"validate", "pass1", "walk", "pass3"}
	if !reflect.DeepEqual(phases, want) {
		t.Errorf("in-memory phases = %v, want %v", phases, want)
	}
}

// TestAnalyzeOptionSpellingsAgree pins the finalized facade: every way
// of spelling the same analysis through Analyze — WithOptions vs the
// individual options, SegmentsSource vs SegmentDirSource, and the
// performance knobs (parallelism, mmap, annotation budget), which must
// never change results — produces identical output.
func TestAnalyzeOptionSpellingsAgree(t *testing.T) {
	tr := workloadTrace(t, "micro", 4)

	unified, err := critlock.Analyze(critlock.TraceSource(tr), critlock.WithClipHold(false))
	if err != nil {
		t.Fatal(err)
	}
	wholesale, err := critlock.Analyze(critlock.TraceSource(tr),
		critlock.WithOptions(critlock.AnalyzeOptions{ClipHold: false}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unified.Locks, wholesale.Locks) {
		t.Errorf("WithOptions disagrees with WithClipHold")
	}

	dir := t.TempDir()
	if err := segment.WriteTrace(dir, tr, segment.Options{}); err != nil {
		t.Fatal(err)
	}
	fromDir, err := critlock.Analyze(critlock.SegmentDirSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	rdr, err := segment.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdr.Close()
	fromReader, err := critlock.Analyze(critlock.SegmentsSource(rdr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromDir.Locks, fromReader.Locks) {
		t.Errorf("SegmentsSource disagrees with Analyze(SegmentDirSource)")
	}

	tuned, err := critlock.Analyze(critlock.SegmentDirSource(dir),
		critlock.WithMmap(false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromDir.Locks, tuned.Locks) || !reflect.DeepEqual(fromDir.CP, tuned.CP) {
		t.Errorf("performance options changed analysis results")
	}
}

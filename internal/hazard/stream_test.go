package hazard

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"critlock/internal/segment"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// TestStreamMatchesInMemory: the hazard report over a segmented trace
// must be bit-identical to the in-memory one at every worker count and
// segment size — hazard analysis has one answer, however the events
// arrive.
func TestStreamMatchesInMemory(t *testing.T) {
	for _, name := range []string{"deadlockprone", "lostsignal", "radiosity", "pipeline"} {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := runWorkload(t, name, workloads.Params{Seed: 1})
			want, err := FromTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			for _, segEvents := range []int{64, 1024} {
				dir := filepath.Join(t.TempDir(), "segs")
				if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: segEvents}); err != nil {
					t.Fatal(err)
				}
				rdr, err := segment.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 8} {
					got, err := FromSegments(rdr, workers)
					if err != nil {
						t.Fatalf("segEvents=%d workers=%d: %v", segEvents, workers, err)
					}
					gotJSON, err := json.Marshal(got)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotJSON, wantJSON) {
						t.Errorf("segEvents=%d workers=%d: streaming report differs from in-memory\n got: %s\nwant: %s",
							segEvents, workers, gotJSON, wantJSON)
					}
				}
				rdr.Close()
			}
		})
	}
}

// TestFromSegmentsEmpty: an empty source errors like the analyzer.
func TestFromSegmentsEmpty(t *testing.T) {
	b := trace.NewBuilder()
	p := b.Thread("p", trace.NoThread)
	b.Start(0, p)
	b.Exit(1, p)
	dir := filepath.Join(t.TempDir(), "segs")
	if err := segment.WriteTrace(dir, b.Trace(), segment.Options{}); err != nil {
		t.Fatal(err)
	}
	rdr, err := segment.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdr.Close()
	if _, err := FromSegments(rdr, 2); err != nil {
		t.Fatalf("tiny trace: %v", err)
	}
}

// TestFromSegmentsAllocs bounds the hazard fold's allocations per
// event: segments decode into one reused column buffer, and the
// machine allocates only for state that grows with the trace's
// objects and for the witnesses it reports, never per event.
func TestFromSegmentsAllocs(t *testing.T) {
	tr := runWorkload(t, "radiosity", workloads.Params{Seed: 1})
	dir := filepath.Join(t.TempDir(), "segs")
	if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 1024}); err != nil {
		t.Fatal(err)
	}
	rdr, err := segment.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdr.Close()
	perEvent := testing.AllocsPerRun(5, func() {
		if _, err := FromSegments(rdr, 1); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(tr.Events))
	t.Logf("FromSegments radiosity: %.4f allocations per event", perEvent)
	if perEvent >= 0.01 {
		t.Errorf("FromSegments on radiosity: %.4f allocations per event, want < 0.01", perEvent)
	}

	tr = runWorkload(t, "pipeline", workloads.Params{Seed: 1})
	perEvent = testing.AllocsPerRun(5, func() {
		if _, err := FromTrace(tr); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(tr.Events))
	t.Logf("FromTrace pipeline: %.4f allocations per event", perEvent)
	if perEvent >= 0.2 {
		t.Errorf("FromTrace on pipeline: %.4f allocations per event, want < 0.2", perEvent)
	}
}

package hazard

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"critlock/internal/core"
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

// slowSource counts its loads in progress. Loading segment fail errors,
// segment bad loads with an event of no valid kind (the machine's
// error), and segment slow takes 50ms.
type slowSource struct {
	core.SegmentSource
	fail, bad, slow int
	active          atomic.Int32
}

func (s *slowSource) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	s.active.Add(1)
	defer s.active.Add(-1)
	if i == s.slow {
		time.Sleep(50 * time.Millisecond)
	}
	if i == s.fail {
		return 0, errors.New("segment unreadable")
	}
	n, err := s.SegmentSource.LoadColumns(i, cols)
	if i == s.bad && err == nil {
		cols.Kind[0] = 0
	}
	return n, err
}

// TestFoldJoinsDecodes: FromSegments (at any worker count) and Fold
// return only once no segment decode they started is running, when a
// load fails and when the machine rejects an event — callers unmap the
// segments right after. (This source is below the read-ahead's size
// floor; core's TestReadAheadGoroutines folds with it forced on.)
func TestFoldJoinsDecodes(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
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
	for _, c := range []struct {
		name      string
		fail, bad int
		want      string
	}{
		{"load error", 2, -1, "segment unreadable"},
		{"machine error", -1, 2, "hazard: event 2048: invalid kind 0"},
	} {
		for _, workers := range []int{1, 2, 4} {
			src := &slowSource{SegmentSource: rdr, fail: c.fail, bad: c.bad, slow: 3}
			_, err := FromSegments(src, workers)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s, FromSegments(%d): err = %v, want %q", c.name, workers, err, c.want)
			}
			if n := src.active.Load(); n != 0 {
				t.Errorf("%s: FromSegments(%d) returned with %d loads running", c.name, workers, n)
			}
		}
		src := &slowSource{SegmentSource: rdr, fail: c.fail, bad: c.bad, slow: 3}
		_, _, err = Fold(src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s, Fold: err = %v, want %q", c.name, err, c.want)
		}
		if n := src.active.Load(); n != 0 {
			t.Errorf("%s: Fold returned with %d loads running", c.name, n)
		}
	}
}

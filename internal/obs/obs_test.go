package obs_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"critlock/internal/obs"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("requests_total", "Requests served.", nil)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration: same name returns the same metric.
	if again := r.Counter("requests_total", "dup", nil); again.Value() != 5 {
		t.Fatalf("re-registration returned a fresh counter")
	}

	g := r.Gauge("active", "Active runs.", nil)
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("phase_seconds", "Phase durations.", map[string]string{"phase": "walk"}, []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 5.555 {
		t.Fatalf("sum = %v, want 5.555", h.Sum())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("critlock_uploads_total", "Uploads.", nil).Add(2)
	r.Histogram("critlock_phase_seconds", "Phases.", map[string]string{"phase": "pass1"}, []float64{0.1, 1}).Observe(0.05)
	r.Histogram("critlock_phase_seconds", "Phases.", map[string]string{"phase": "walk"}, []float64{0.1, 1}).Observe(2)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP critlock_uploads_total Uploads.",
		"# TYPE critlock_uploads_total counter",
		"critlock_uploads_total 2",
		"# TYPE critlock_phase_seconds histogram",
		`critlock_phase_seconds_bucket{phase="pass1",le="0.1"} 1`,
		`critlock_phase_seconds_bucket{phase="pass1",le="+Inf"} 1`,
		`critlock_phase_seconds_bucket{phase="walk",le="1"} 0`,
		`critlock_phase_seconds_bucket{phase="walk",le="+Inf"} 1`,
		`critlock_phase_seconds_sum{phase="walk"} 2`,
		`critlock_phase_seconds_count{phase="pass1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The histogram family's HELP/TYPE header must appear exactly once
	// even with two labeled children.
	if n := strings.Count(out, "# TYPE critlock_phase_seconds histogram"); n != 1 {
		t.Errorf("TYPE header appears %d times, want 1", n)
	}
}

func TestCombineAndFuncs(t *testing.T) {
	var phases []string
	var got []obs.Progress
	o := obs.Combine(nil, obs.Funcs{
		Start:    func(p string) { phases = append(phases, p) },
		Progress: func(p obs.Progress) { got = append(got, p) },
	}, nil)
	if o == nil {
		t.Fatal("Combine dropped the non-nil observer")
	}
	o.PhaseStart("index")
	o.PhaseDone("index", time.Millisecond)
	o.OnProgress(obs.Progress{Phase: "index", Events: 10})
	if len(phases) != 1 || phases[0] != "index" || len(got) != 1 || got[0].Events != 10 {
		t.Fatalf("callbacks not delivered: phases=%v got=%v", phases, got)
	}
	if obs.Combine(nil, nil) != nil {
		t.Fatal("Combine(nil, nil) != nil")
	}
}

func TestInstrumentsDeltas(t *testing.T) {
	r := obs.NewRegistry()
	ins := obs.NewInstruments(r)
	run := ins.Run()
	// Cumulative snapshots: 100 then 250 events → counter must read 250.
	run.OnProgress(obs.Progress{Phase: "pass1", Events: 100, Segments: 1})
	run.OnProgress(obs.Progress{Phase: "pass1", Events: 250, Segments: 2, BytesRead: 512})
	// Phase boundary: pass3 re-reads the trace, restarting the event
	// cursor — its 50 events add on top of pass1's 250.
	run.OnProgress(obs.Progress{Phase: "pass3", Events: 50, Segments: 3, BytesRead: 512})
	run.PhaseDone("pass1", 5*time.Millisecond)

	snap := r.Snapshot()
	if got := snap["critlock_analysis_events_total"]; got != int64(300) {
		t.Errorf("events counter = %v, want 300", got)
	}
	if got := snap["critlock_analysis_segments_total"]; got != int64(3) {
		t.Errorf("segments counter = %v, want 3", got)
	}
	if got := snap["critlock_analysis_read_bytes_total"]; got != int64(512) {
		t.Errorf("read counter = %v, want 512", got)
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tk := obs.NewTracker()
	run := tk.Start("abc", "trace")
	run.PhaseStart("walk")
	run.OnProgress(obs.Progress{Phase: "walk", Events: 7, TotalEvents: 10})

	snap := tk.Snapshot()
	if len(snap) != 1 || snap[0].ID != "abc" || snap[0].Phase != "walk" || snap[0].Events != 7 || snap[0].Done {
		t.Fatalf("live snapshot = %+v", snap)
	}

	run.Done()
	snap = tk.Snapshot()
	if len(snap) != 1 || !snap[0].Done {
		t.Fatalf("finished snapshot = %+v", snap)
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("n", "n", nil)
	h := r.Histogram("h", "h", nil, []float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter=%d histogram count=%d, want 8000", c.Value(), h.Count())
	}
	if h.Sum() != 4000 {
		t.Fatalf("histogram sum=%v, want 4000", h.Sum())
	}
}

package core_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"critlock/internal/core"
	"critlock/internal/obs"
	"critlock/internal/trace"
)

// withCores runs the rest of the test with at least two Ps, so
// TraceSource validates beside the passes even on a one-core machine.
// The tests lower the size from which it does to one event
// (TraceSourceBesideFrom); every trace here is more than one segment.
func withCores(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// besideSplit is withCores with the read-ahead's gate lowered too, so
// the passes beside the validator read ahead and split pass 3 as they
// do on a large trace; it fails the test unless pass 3 of tr splits.
func besideSplit(t *testing.T, tr *trace.Trace) {
	t.Helper()
	withCores(t)
	core.SetReadAheadFrom(t, 0)
	if n := core.Pass3Ranges(core.TraceSegments(tr)); n < 2 {
		t.Fatalf("pass 3 runs as %d range", n)
	}
}

// phaseLog is an observer with no locking of its own: run under -race,
// two callbacks at once are a reported data race.
type phaseLog struct {
	starts []string
	dones  []string
	took   map[string]time.Duration
	last   string // the phase of the latest snapshot
}

func (l *phaseLog) PhaseStart(phase string) { l.starts = append(l.starts, phase) }
func (l *phaseLog) PhaseDone(phase string, d time.Duration) {
	l.dones = append(l.dones, phase)
	l.took[phase] += d
}
func (l *phaseLog) OnProgress(p obs.Progress) { l.last = p.Phase }

// TestValidateBesideObserver: when validation runs beside the passes,
// which read ahead and split pass 3 at the default configuration, the
// observer still sees the validate phase once, after pass3, with the
// validator's own duration, and its callbacks never overlap. A trace
// the validator rejects reports the validate phase's start and the
// validator's error.
func TestValidateBesideObserver(t *testing.T) {
	tr := simTrace(t, "uts", 6, 1) // more than three in-memory segments
	besideSplit(t, tr)
	for _, procs := range []int{2, 3} {
		runtime.GOMAXPROCS(procs) // pass 3 splits into procs ranges
		log := &phaseLog{took: map[string]time.Duration{}}
		opts := core.DefaultOptions()
		opts.Observer = log
		cfg := core.Config{Options: opts}
		if _, err := core.AnalyzeSource(core.TraceSourceBesideFrom(tr, 1), cfg); err != nil {
			t.Fatal(err)
		}
		want := "pass1 walk pass3 validate"
		if got := strings.Join(log.starts, " "); got != want {
			t.Errorf("procs=%d: phases started %q, want %q", procs, got, want)
		}
		if got := strings.Join(log.dones, " "); got != want {
			t.Errorf("procs=%d: phases done %q, want %q", procs, got, want)
		}
		if log.took["validate"] <= 0 || log.last != "validate" {
			t.Errorf("procs=%d: validate took %v, last snapshot in %q", procs, log.took["validate"], log.last)
		}
	}

	bad := *tr
	bad.Events = append([]trace.Event(nil), tr.Events[:len(tr.Events)-1]...) // drops a thread exit
	log := &phaseLog{took: map[string]time.Duration{}}
	opts := core.DefaultOptions()
	opts.Observer = log
	_, err := core.AnalyzeSource(core.TraceSourceBesideFrom(&bad, 1), core.Config{Options: opts})
	verr := trace.Validate(&bad)
	if verr == nil || err == nil || err.Error() != "core: invalid trace: "+verr.Error() {
		t.Fatalf("err = %v, want the validator's %v", err, verr)
	}
	if got := strings.Join(log.starts, " "); !strings.HasSuffix(got, "validate") || strings.Count(got, "validate") != 1 {
		t.Errorf("phases started %q, want validate last and once", got)
	}
	if strings.Contains(strings.Join(log.dones, " "), "validate") {
		t.Errorf("a rejected trace reported validate done")
	}
}

// settledGoroutines waits up to a second for the goroutine count to
// fall to want — a goroutine that has signalled its join may not have
// returned yet — and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestValidateBesideGoroutines: neither the validator's goroutine nor
// a decode or a pass-3 range outlives the analysis, whether the trace
// is accepted, rejected by the validator alone, or rejected by the
// passes too — in pass 1 or in a pass-3 range past the head.
func TestValidateBesideGoroutines(t *testing.T) {
	tr := simTrace(t, "uts", 6, 1)
	besideSplit(t, tr)
	mutated := func(mutate func(e []trace.Event)) *trace.Trace {
		bad := *tr
		bad.Events = append([]trace.Event(nil), tr.Events...)
		mutate(bad.Events)
		return &bad
	}
	last := len(tr.Events) - 1
	dropExit := *tr
	dropExit.Events = tr.Events[:last] // a thread never exits: the validator alone fails
	badThread := mutated(func(e []trace.Event) { e[len(e)/2].Thread = trace.ThreadID(len(tr.Threads)) })
	// A release with no hold among the last 4,096 events: pass 3's last
	// range relays it and the merge fails.
	orphan := last - 4096 + slices.IndexFunc(tr.Events[last-4096:], func(e trace.Event) bool { return e.Kind == trace.EvLockAcquire })
	badRelease := mutated(func(e []trace.Event) { e[orphan].Kind = trace.EvLockRelease })

	cfg := core.Config{Options: core.DefaultOptions()}
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		name   string
		tr     *trace.Trace
		ok     bool
		passes string // the passes' own error, without the validator
	}{{"valid", tr, true, ""}, {"validator rejects", &dropExit, false, ""},
		{"pass 1 rejects", badThread, false, "out of range"},
		{"pass 3 rejects", badRelease, false, fmt.Sprintf("core: event %d: release of", orphan)}} {
		_, err := core.AnalyzeSource(core.TraceSourceBesideFrom(c.tr, 1), cfg)
		if (err == nil) != c.ok {
			t.Fatalf("%s: err = %v", c.name, err)
		}
		if _, perr := core.AnalyzeStream(core.TraceSegments(c.tr), cfg); (perr == nil) != (c.passes == "") ||
			perr != nil && !strings.Contains(perr.Error(), c.passes) {
			t.Fatalf("%s: the passes alone give %v, want %q", c.name, perr, c.passes)
		}
		if n := settledGoroutines(base); n != base {
			t.Errorf("%s: %d goroutines after Analyze, %d before", c.name, n, base)
		}
	}
}

// TestTraceSegmentsChecks: an in-memory segment's first load checks
// what a segment file's first load checks, so passes that run before
// (or without) validation never see events out of order, invalid
// kinds or threads out of range — at a segment seam too.
func TestTraceSegmentsChecks(t *testing.T) {
	tr := simTrace(t, "uts", 6, 1)
	const seam = 4096 // the first event of the second in-memory segment
	for _, c := range []struct {
		name   string
		mutate func(e []trace.Event)
		want   string
	}{
		{"order at a seam", func(e []trace.Event) { e[seam].T, e[seam].Seq = e[seam-1].T, e[seam-1].Seq }, "core: event 4096 out of order"},
		{"order", func(e []trace.Event) { e[seam+7].T = e[seam+6].T - 1 }, "core: event 4103 out of order"},
		{"kind", func(e []trace.Event) { e[seam+7].Kind = 0 }, "core: event 4103: invalid kind 0"},
		{"thread", func(e []trace.Event) { e[seam+7].Thread = -1 }, "core: event 4103: thread -1 out of range"},
	} {
		bad := *tr
		bad.Events = append([]trace.Event(nil), tr.Events...)
		c.mutate(bad.Events)
		_, err := core.AnalyzeStream(core.TraceSegments(&bad), core.Config{Options: core.DefaultOptions()})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

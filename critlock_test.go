package critlock_test

import (
	"bytes"
	"strings"
	"testing"

	"critlock"
)

// TestPublicAPIEndToEnd exercises the whole facade: simulate a small
// program, round-trip the trace through the binary codec, analyze it
// and render every report.
func TestPublicAPIEndToEnd(t *testing.T) {
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 4, Seed: 42})
	mu := sim.NewMutex("shared")
	bar := sim.NewBarrier("phase", 3)
	tr, elapsed, err := sim.Run(func(p critlock.Proc) {
		var kids []critlock.Thread
		for i := 0; i < 2; i++ {
			kids = append(kids, p.Go("worker", func(q critlock.Proc) {
				for j := 0; j < 5; j++ {
					q.Compute(200)
					q.Lock(mu)
					q.Compute(100)
					q.Unlock(mu)
				}
				q.BarrierWait(bar)
			}))
		}
		p.BarrierWait(bar)
		for _, k := range kids {
			p.Join(k)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if err := critlock.ValidateTrace(tr); err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}

	var buf bytes.Buffer
	if err := critlock.WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	tr2, err := critlock.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}

	an, err := critlock.Analyze(critlock.TraceSource(tr2))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if an.CP.Length != elapsed {
		t.Errorf("CP length %d != elapsed %d", an.CP.Length, elapsed)
	}
	if l := an.Lock("shared"); l == nil || !l.Critical {
		t.Errorf("shared lock not critical: %+v", l)
	}

	lockTable := critlock.LockTable(an, 0).String()
	if !strings.Contains(lockTable, "shared") || !strings.Contains(lockTable, "CP Time %") {
		t.Errorf("lock table missing content:\n%s", lockTable)
	}
	threadTable := critlock.ThreadTable(an).String()
	if !strings.Contains(threadTable, "worker") {
		t.Errorf("thread table missing workers:\n%s", threadTable)
	}
	timeline, err := critlock.Timeline(an, critlock.TraceSegments(tr), 80)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(timeline, "critical path") {
		t.Errorf("timeline missing legend:\n%s", timeline)
	}
	var sum bytes.Buffer
	critlock.Summary(&sum, an)
	if !strings.Contains(sum.String(), "critical path") {
		t.Errorf("summary missing: %s", sum.String())
	}
}

func TestPublicAPIJSONRoundTrip(t *testing.T) {
	sim := critlock.NewSimulator(critlock.SimConfig{})
	tr, _, err := sim.Run(func(p critlock.Proc) { p.Compute(10) })
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := critlock.WriteTraceJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := critlock.ReadTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestPublicWorkloads(t *testing.T) {
	names := critlock.Workloads()
	if len(names) != 12 {
		t.Fatalf("Workloads() = %v, want 12 entries", names)
	}
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, elapsed, err := critlock.RunWorkload(sim, "micro", critlock.WorkloadParams{Threads: 4})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if elapsed != 12_000_000 {
		t.Errorf("micro elapsed = %d, want 12ms", elapsed)
	}
	an, err := critlock.Analyze(critlock.TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if an.Locks[0].Name != "L2" {
		t.Errorf("top micro lock = %s, want L2", an.Locks[0].Name)
	}

	if _, _, err := critlock.RunWorkload(sim, "bogus", critlock.WorkloadParams{}); err == nil {
		t.Error("RunWorkload(bogus) succeeded")
	}
}

func TestPublicLiveRuntime(t *testing.T) {
	rt := critlock.NewLiveRuntime(critlock.LiveConfig{Seed: 9})
	mu := rt.NewMutex("m")
	tr, _, err := rt.Run(func(p critlock.Proc) {
		k := p.Go("w", func(q critlock.Proc) {
			q.Lock(mu)
			q.Compute(50_000)
			q.Unlock(mu)
		})
		p.Lock(mu)
		p.Compute(50_000)
		p.Unlock(mu)
		p.Join(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := critlock.Analyze(critlock.TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if got := an.Lock("m").TotalInvocations; got != 2 {
		t.Errorf("invocations = %d, want 2", got)
	}
}

func TestAnalyzeWithClipHoldOff(t *testing.T) {
	sim := critlock.NewSimulator(critlock.SimConfig{})
	mu := sim.NewMutex("m")
	tr, _, err := sim.Run(func(p critlock.Proc) {
		p.Lock(mu)
		p.Compute(100)
		p.Unlock(mu)
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := critlock.Analyze(critlock.TraceSource(tr), critlock.WithClipHold(false))
	if err != nil {
		t.Fatal(err)
	}
	if an.Lock("m").HoldOnCP != 100 {
		t.Errorf("hold on CP = %d, want 100", an.Lock("m").HoldOnCP)
	}
}

// TestPublicAnalysisExtras covers the extended facade: composition,
// windows, phases, slack, lock order, model extraction and the full
// markdown report.
func TestPublicAnalysisExtras(t *testing.T) {
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 4})
	tr, _, err := critlock.RunWorkload(sim, "radiosity", critlock.WorkloadParams{Threads: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	an, err := critlock.Analyze(critlock.TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}

	if s := critlock.CompositionTable(an).String(); !strings.Contains(s, "inside critical sections") {
		t.Errorf("composition table:\n%s", s)
	}
	if s := critlock.WindowTable(an, 4).String(); !strings.Contains(s, "Top lock") {
		t.Errorf("window table:\n%s", s)
	}
	if s := critlock.PhaseTable(an, 8).String(); !strings.Contains(s, "Dominant lock") {
		t.Errorf("phase table:\n%s", s)
	}
	src := critlock.TraceSegments(tr)
	sa, err := an.Slack(src)
	if err != nil {
		t.Fatal(err)
	}
	if s := critlock.SlackTable(sa, 5).String(); !strings.Contains(s, "Min slack") {
		t.Errorf("slack table:\n%s", s)
	}
	lo, err := critlock.LockOrderOf(src)
	if err != nil {
		t.Fatal(err)
	}
	_ = critlock.LockOrderTable(lo) // radiosity never nests locks: table may be empty
	if lo.HasCycle() {
		t.Error("radiosity reported a deadlock cycle")
	}

	cfg, err := critlock.ExtractModel(an)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name == "" || len(cfg.Locks) == 0 {
		t.Errorf("extracted model: %+v", cfg)
	}

	doc, err := critlock.FullReport(an, src, critlock.ReportOptions{TopLocks: 5, Windows: 4, Slack: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, "# Critical lock analysis: radiosity") {
		t.Errorf("report header missing:\n%.200s", doc)
	}
}

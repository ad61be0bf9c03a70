package core

import (
	"testing"

	"critlock/internal/trace"
)

func observeAll(t *testing.T, p *Predictor, tr *trace.Trace) {
	t.Helper()
	if err := p.ObserveAll(TraceSegments(tr)); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorFig1(t *testing.T) {
	tr := fig1Trace()
	p := NewPredictor()
	observeAll(t, p, tr)

	an, err := AnalyzeDefault(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: L2 is the critical lock.
	if got := tr.ObjName(p.Top()); got != an.Locks[0].Name {
		t.Errorf("predictor top = %s, ground truth = %s", got, an.Locks[0].Name)
	}
	// The naive wait ranking picks L4 — the paper's misleading metric.
	wait := p.WaitRanking()
	if got := tr.ObjName(wait[0].Lock); got != "L4" {
		t.Errorf("wait-based top = %s, want L4 (the misleading answer)", got)
	}
}

func TestPredictorUncontendedStillScores(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	m := b.Mutex("solo")
	b.Start(0, main)
	b.CS(main, m, 10, 10, 60)
	b.Exit(100, main)
	p := NewPredictor()
	observeAll(t, p, b.Trace())
	r := p.Ranking()
	// A single running thread: every held nanosecond is critical.
	if len(r) != 1 || r[0].Score != 50 {
		t.Errorf("ranking = %+v, want one lock scored 50", r)
	}
	if r[0].WaitSum != 0 {
		t.Errorf("wait sum = %d, want 0", r[0].WaitSum)
	}
}

func TestPredictorConvoyWeighting(t *testing.T) {
	// Two locks with equal cumulative hold; "hot" serializes three
	// threads (its holds run at low parallelism), "cold" is held while
	// everyone else runs — hot must score higher.
	b := trace.NewBuilder()
	t1 := b.Thread("t1", trace.NoThread)
	t2 := b.Thread("t2", t1)
	t3 := b.Thread("t3", t1)
	hot := b.Mutex("hot")
	cold := b.Mutex("cold")
	for _, th := range []trace.ThreadID{t1, t2, t3} {
		b.Start(0, th)
	}
	b.CS(t1, hot, 0, 0, 50) // t2 and t3 queue behind it
	b.CS(t2, hot, 1, 50, 60)
	b.CS(t3, hot, 2, 60, 70)
	b.CS(t1, cold, 60, 60, 110) // same cumulative hold, others running
	b.Exit(120, t1)
	b.Exit(120, t2)
	b.Exit(120, t3)
	p := NewPredictor()
	observeAll(t, p, b.Trace())
	r := p.Ranking()
	if got := r[0].Lock; got != hot {
		t.Errorf("top = %v, want hot (got ranking %+v)", got, r)
	}
	// hot's first hold ran nearly alone: [0,1] r=3, [1,2] r=2, [2,50]
	// r=1 → ≈ 48.8 of its 50ns were critical; the rest at r≥2.
	if r[0].Score < 50 {
		t.Errorf("hot score = %.1f, want > 50", r[0].Score)
	}
	var coldScore float64
	for _, pl := range r {
		if pl.Lock == cold {
			coldScore = pl.Score
		}
	}
	if coldScore >= r[0].Score/2 {
		t.Errorf("cold score %.1f not well below hot %.1f", coldScore, r[0].Score)
	}
}

// TestPredictorStragglerLock: an uncontended lock held by the one
// thread still running (the UTS stackLock[5] pattern) must outscore a
// contended lock whose traffic happened at full parallelism.
func TestPredictorStragglerLock(t *testing.T) {
	b := trace.NewBuilder()
	t1 := b.Thread("t1", trace.NoThread)
	t2 := b.Thread("t2", t1)
	t3 := b.Thread("t3", t1)
	busy := b.Mutex("busy")      // contended early, everyone alive
	straggle := b.Mutex("strag") // uncontended, held late by the last thread
	for _, th := range []trace.ThreadID{t1, t2, t3} {
		b.Start(0, th)
	}
	b.CS(t1, busy, 0, 0, 10)
	b.CS(t2, busy, 1, 10, 20)
	b.CS(t3, busy, 2, 20, 30)
	b.Exit(40, t1)
	b.Exit(40, t2)
	// t3 runs on alone, repeatedly taking its private lock.
	for i := trace.Time(0); i < 10; i++ {
		start := 40 + i*20
		b.CS(t3, straggle, start, start, start+8)
	}
	b.Exit(240, t3)
	p := NewPredictor()
	observeAll(t, p, b.Trace())
	if got := p.Top(); got != straggle {
		t.Errorf("top = %v, want the straggler's lock (%+v)", got, p.Ranking())
	}
}

func TestPredictorEmpty(t *testing.T) {
	p := NewPredictor()
	if p.Top() != trace.NoObj {
		t.Error("empty predictor has a top lock")
	}
	if len(p.Ranking()) != 0 {
		t.Error("empty predictor has rankings")
	}
}

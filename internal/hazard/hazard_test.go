package hazard

import (
	"encoding/json"
	"strings"
	"testing"

	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

func runWorkload(t *testing.T, name string, p workloads.Params) *trace.Trace {
	t.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sim.Config{Contexts: 8, Seed: p.Seed})
	tr, _, err := workloads.Run(s, spec, p)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return tr
}

// TestDeadlockProneCrossThread: the default variant must yield exactly
// one feasible deadlock cycle {locks.A, locks.B}, with the A→B edge
// realized only through the channel hand-off (cross-thread) and the
// B→A edge as ordinary nesting — and nothing else.
func TestDeadlockProneCrossThread(t *testing.T) {
	tr := runWorkload(t, "deadlockprone", workloads.Params{Seed: 1})
	r, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cycles) != 1 {
		t.Fatalf("cycles = %d, want exactly 1: %+v", len(r.Cycles), r.Cycles)
	}
	if len(r.LostSignals) != 0 || len(r.GuardIssues) != 0 {
		t.Fatalf("unexpected extra hazards: lost=%+v guard=%+v", r.LostSignals, r.GuardIssues)
	}
	c := r.Cycles[0]
	if got := strings.Join(c.Locks, ","); got != "locks.A,locks.B" {
		t.Fatalf("cycle locks = %s, want locks.A,locks.B", got)
	}
	if !c.CrossThread {
		t.Fatal("cycle not marked cross-thread")
	}
	if len(c.Edges) != 2 {
		t.Fatalf("cycle edges = %d, want 2: %+v", len(c.Edges), c.Edges)
	}
	var ab, ba *Edge
	for i := range c.Edges {
		switch c.Edges[i].From + "->" + c.Edges[i].To {
		case "locks.A->locks.B":
			ab = &c.Edges[i]
		case "locks.B->locks.A":
			ba = &c.Edges[i]
		}
	}
	if ab == nil || ba == nil {
		t.Fatalf("missing cycle edge: %+v", c.Edges)
	}
	if ab.CrossCount != ab.Count || ab.CrossWitness == nil {
		t.Fatalf("A->B should be purely cross-thread: %+v", ab)
	}
	w := ab.CrossWitness
	if w.ThreadName != "g2" || w.OwnerName != "g1" || !strings.Contains(w.Via, "gate") {
		t.Errorf("A->B cross witness = %+v, want g2 inheriting from g1 via gate", w)
	}
	if len(w.Held) == 0 || !strings.Contains(strings.Join(w.Held, ";"), "locks.A (held by g1") {
		t.Errorf("A->B witness stack %v does not show the inherited hold", w.Held)
	}
	if w.OuterT >= w.InnerT {
		t.Errorf("witness times: outer %d should precede inner %d", w.OuterT, w.InnerT)
	}
	if ba.CrossCount != 0 {
		t.Errorf("B->A should be ordinary nesting: %+v", ba)
	}
	if got := strings.Join(ba.Witness.Held, ";"); !strings.Contains(got, "locks.B") {
		t.Errorf("B->A witness stack %v does not show locks.B held", ba.Witness.Held)
	}
}

// TestDeadlockProneTwoLock: the intra-thread variant realizes the same
// cycle with ordinary nesting edges only.
func TestDeadlockProneTwoLock(t *testing.T) {
	tr := runWorkload(t, "deadlockprone", workloads.Params{Seed: 1, TwoLock: true})
	r, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != 1 || len(r.Cycles) != 1 {
		t.Fatalf("want exactly one cycle and nothing else, got cycles=%d lost=%d guard=%d",
			len(r.Cycles), len(r.LostSignals), len(r.GuardIssues))
	}
	c := r.Cycles[0]
	if got := strings.Join(c.Locks, ","); got != "locks.A,locks.B" {
		t.Fatalf("cycle locks = %s, want locks.A,locks.B", got)
	}
	if c.CrossThread {
		t.Errorf("twolock variant should have no cross-thread edges: %+v", c.Edges)
	}
	for _, e := range c.Edges {
		if e.Witness.InnerT < e.Witness.OuterT {
			t.Errorf("edge %s->%s witness: inner obtain %d precedes outer %d",
				e.From, e.To, e.Witness.InnerT, e.Witness.OuterT)
		}
		if len(e.Witness.Held) == 0 {
			t.Errorf("edge %s->%s missing witness acquisition stack", e.From, e.To)
		}
	}
}

// TestLostSignalPlanted: exactly one lost signal on ls.cv, and the
// consumed first signal is not flagged.
func TestLostSignalPlanted(t *testing.T) {
	tr := runWorkload(t, "lostsignal", workloads.Params{Seed: 1})
	r, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != 1 || len(r.LostSignals) != 1 {
		t.Fatalf("want exactly one lost signal, got cycles=%d lost=%+v guard=%+v",
			len(r.Cycles), r.LostSignals, r.GuardIssues)
	}
	l := r.LostSignals[0]
	if l.Kind != "signal" || l.Object != "ls.cv" || l.ThreadName != "main" || l.Waiters != 1 {
		t.Fatalf("lost signal = %+v, want signal on ls.cv by main with 1 ever-waiter", l)
	}
}

// TestCleanWorkloadsNoHazards: every registered workload except the
// two planted ones must analyze hazard-free — the zero-false-positive
// bar for the rules.
func TestCleanWorkloadsNoHazards(t *testing.T) {
	for _, name := range workloads.Names() {
		if name == "deadlockprone" || name == "lostsignal" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			tr := runWorkload(t, name, workloads.Params{Seed: 1})
			r, err := FromTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			if r.Total() != 0 {
				b, _ := json.MarshalIndent(r, "", "  ")
				t.Errorf("%s reports hazards on a clean run:\n%s", name, b)
			}
		})
	}
}

// TestLostChannelSends: values sent on a channel nobody drains, and a
// close abandoning a buffered value, are both reported.
func TestLostChannelSends(t *testing.T) {
	b := trace.NewBuilder()
	p := b.Thread("producer", trace.NoThread)
	ch := b.Chan("orphan", 4)
	b.Start(0, p)
	b.Event(10, p, trace.EvChanSendBegin, ch, 0)
	b.Event(10, p, trace.EvChanSend, ch, 0)
	b.Event(20, p, trace.EvChanSendBegin, ch, 0)
	b.Event(20, p, trace.EvChanSend, ch, 0)
	b.Exit(30, p)
	r, err := FromTrace(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LostSignals) != 1 {
		t.Fatalf("lost = %+v, want one", r.LostSignals)
	}
	l := r.LostSignals[0]
	if l.Kind != "send" || l.Object != "orphan" || l.Undelivered != 2 || l.T != 10 {
		t.Fatalf("lost send = %+v, want 2 undelivered on orphan witnessed at the first", l)
	}

	// Same trace plus a close: the finding shifts to the close site.
	b.Event(25, p, trace.EvChanClose, ch, 0)
	r, err = FromTrace(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LostSignals) != 1 || r.LostSignals[0].Kind != "close" || r.LostSignals[0].T != 25 {
		t.Fatalf("lost after close = %+v, want one close finding at t=25", r.LostSignals)
	}
}

// TestDrainedChannelClean: sends all consumed — including a post-close
// drain of the buffer — report nothing.
func TestDrainedChannelClean(t *testing.T) {
	b := trace.NewBuilder()
	p := b.Thread("producer", trace.NoThread)
	c := b.Thread("consumer", p)
	ch := b.Chan("q", 2)
	b.Start(0, p)
	b.Start(0, c)
	b.Event(10, p, trace.EvChanSendBegin, ch, 0)
	b.Event(10, p, trace.EvChanSend, ch, 0)
	b.Event(12, p, trace.EvChanSendBegin, ch, 0)
	b.Event(12, p, trace.EvChanSend, ch, 0)
	b.Event(14, p, trace.EvChanClose, ch, 0)
	b.Exit(15, p)
	b.Event(20, c, trace.EvChanRecvBegin, ch, 0)
	b.Event(20, c, trace.EvChanRecv, ch, 0)
	b.Event(22, c, trace.EvChanRecvBegin, ch, 0)
	b.Event(22, c, trace.EvChanRecv, ch, 0)
	b.Event(24, c, trace.EvChanRecvBegin, ch, 0)
	b.Event(24, c, trace.EvChanRecv, ch, trace.ChanArgClosed)
	b.Exit(25, c)
	r, err := FromTrace(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != 0 {
		t.Fatalf("drained channel reported hazards: %+v", r)
	}
}

// TestCondGuardInconsistency: waiting on one cond under two different
// mutexes is flagged with both witness sites.
func TestCondGuardInconsistency(t *testing.T) {
	b := trace.NewBuilder()
	t1 := b.Thread("t1", trace.NoThread)
	t2 := b.Thread("t2", t1)
	m1 := b.Mutex("mu1")
	m2 := b.Mutex("mu2")
	cv := b.Cond("cv")
	b.Start(0, t1)
	b.Start(0, t2)
	b.CS(t1, m1, 5, 5, 6)
	b.Event(6, t1, trace.EvCondWaitBegin, cv, int64(m1))
	b.CS(t2, m2, 7, 7, 8)
	b.Event(8, t2, trace.EvCondWaitBegin, cv, int64(m2))
	b.Event(10, t1, trace.EvCondWaitEnd, cv, int64(m1))
	b.Event(10, t2, trace.EvCondWaitEnd, cv, int64(m2))
	b.Exit(20, t1)
	b.Exit(20, t2)
	r, err := FromTrace(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.GuardIssues) != 1 {
		t.Fatalf("guard issues = %+v, want one", r.GuardIssues)
	}
	g := r.GuardIssues[0]
	if g.Object != "cv" || g.ObjKind != "cond" || len(g.Sites) != 2 {
		t.Fatalf("guard issue = %+v", g)
	}
	if g.Sites[0].Mutex != "mu1" || g.Sites[1].Mutex != "mu2" {
		t.Fatalf("guard sites = %+v, want mu1 and mu2 witnesses", g.Sites)
	}
}

// TestChanGuardInconsistency: two threads operating on one channel
// under disjoint non-empty lock sets are flagged; a thread holding
// nothing (the normal hand-off pattern) is not a conflict.
func TestChanGuardInconsistency(t *testing.T) {
	b := trace.NewBuilder()
	t1 := b.Thread("t1", trace.NoThread)
	t2 := b.Thread("t2", t1)
	t3 := b.Thread("t3", t1)
	la := b.Mutex("la")
	lb := b.Mutex("lb")
	ch := b.Chan("ch", 8)
	b.Start(0, t1)
	b.Start(0, t2)
	b.Start(0, t3)
	// t1 sends under la; t3 receives under no lock (fine); t2 sends
	// under lb (conflict).
	b.Event(5, t1, trace.EvLockAcquire, la, 0)
	b.Event(5, t1, trace.EvLockObtain, la, 0)
	b.Event(6, t1, trace.EvChanSendBegin, ch, 0)
	b.Event(6, t1, trace.EvChanSend, ch, 0)
	b.Event(7, t1, trace.EvLockRelease, la, 0)
	b.Event(8, t3, trace.EvChanRecvBegin, ch, 0)
	b.Event(8, t3, trace.EvChanRecv, ch, 0)
	b.Event(9, t2, trace.EvLockAcquire, lb, 0)
	b.Event(9, t2, trace.EvLockObtain, lb, 0)
	b.Event(10, t2, trace.EvChanSendBegin, ch, 0)
	b.Event(10, t2, trace.EvChanSend, ch, 0)
	b.Event(11, t2, trace.EvLockRelease, lb, 0)
	b.Event(12, t3, trace.EvChanRecvBegin, ch, 0)
	b.Event(12, t3, trace.EvChanRecv, ch, 0)
	b.Exit(20, t1)
	b.Exit(20, t2)
	b.Exit(20, t3)
	r, err := FromTrace(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.GuardIssues) != 1 {
		t.Fatalf("guard issues = %+v, want one", r.GuardIssues)
	}
	g := r.GuardIssues[0]
	if g.Object != "ch" || g.ObjKind != "chan" {
		t.Fatalf("guard issue = %+v", g)
	}
	if len(g.Sites) != 2 || g.Sites[0].Held[0] != "la" || g.Sites[1].Held[0] != "lb" {
		t.Fatalf("guard sites = %+v, want la vs lb", g.Sites)
	}
}

// TestBenignTerminationBroadcastClean: a broadcast with zero current
// waiters is NOT lost while its ever-waiters are still alive (the
// standard termination-wakeup pattern).
func TestBenignTerminationBroadcastClean(t *testing.T) {
	b := trace.NewBuilder()
	boss := b.Thread("boss", trace.NoThread)
	w := b.Thread("w", boss)
	cv := b.Cond("cv")
	m := b.Mutex("m")
	b.Start(0, boss)
	b.Start(0, w)
	b.CS(w, m, 1, 1, 2)
	b.Event(2, w, trace.EvCondWaitBegin, cv, int64(m))
	b.Event(5, boss, trace.EvCondSignal, cv, 0)
	b.Event(5, w, trace.EvCondWaitEnd, cv, int64(m))
	// Worker is busy (not waiting) — broadcast finds no waiter, but the
	// worker is alive and could wait again.
	b.Event(8, boss, trace.EvCondBroadcast, cv, 0)
	b.Exit(10, w)
	b.Exit(12, boss)
	r, err := FromTrace(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LostSignals) != 0 {
		t.Fatalf("benign broadcast flagged: %+v", r.LostSignals)
	}
}

// TestLostSignalClearedByLaterWaiter: a signal that looked lost is
// cleared when a new thread waits on the cond afterwards.
func TestLostSignalClearedByLaterWaiter(t *testing.T) {
	b := trace.NewBuilder()
	boss := b.Thread("boss", trace.NoThread)
	w1 := b.Thread("w1", boss)
	w2 := b.Thread("w2", boss)
	cv := b.Cond("cv")
	m := b.Mutex("m")
	b.Start(0, boss)
	b.Start(0, w1)
	b.Start(0, w2)
	b.CS(w1, m, 1, 1, 2)
	b.Event(2, w1, trace.EvCondWaitBegin, cv, int64(m))
	b.Event(4, boss, trace.EvCondSignal, cv, 0)
	b.Event(4, w1, trace.EvCondWaitEnd, cv, int64(m))
	b.Exit(5, w1)
	// w1 (the only ever-waiter) has exited: this signal looks lost...
	b.Event(6, boss, trace.EvCondSignal, cv, 0)
	// ...until w2 starts waiting, proving waiters were still possible.
	b.CS(w2, m, 7, 7, 8)
	b.Event(8, w2, trace.EvCondWaitBegin, cv, int64(m))
	b.Event(9, boss, trace.EvCondSignal, cv, 0)
	b.Event(9, w2, trace.EvCondWaitEnd, cv, int64(m))
	b.Exit(10, w2)
	b.Exit(12, boss)
	r, err := FromTrace(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LostSignals) != 0 {
		t.Fatalf("cleared candidate still reported: %+v", r.LostSignals)
	}
}

// TestCrossThreadCondEdge: a lock held across a cond signal extends
// its critical section into the woken thread.
func TestCrossThreadCondEdge(t *testing.T) {
	b := trace.NewBuilder()
	sig := b.Thread("sig", trace.NoThread)
	wai := b.Thread("wai", sig)
	outer := b.Mutex("outer")
	inner := b.Mutex("inner")
	m := b.Mutex("m")
	cv := b.Cond("cv")
	b.Start(0, sig)
	b.Start(0, wai)
	b.CS(wai, m, 1, 1, 2)
	b.Event(2, wai, trace.EvCondWaitBegin, cv, int64(m))
	// Signaller holds `outer` across the signal and beyond.
	b.Event(5, sig, trace.EvLockAcquire, outer, 0)
	b.Event(5, sig, trace.EvLockObtain, outer, 0)
	b.Event(6, sig, trace.EvCondSignal, cv, 0)
	b.Event(7, wai, trace.EvLockAcquire, m, 0)
	b.Event(7, wai, trace.EvLockObtain, m, trace.LockArgContended)
	b.Event(7, wai, trace.EvCondWaitEnd, cv, int64(m))
	b.Event(8, wai, trace.EvLockRelease, m, 0)
	// While `outer` is still held by sig, wai takes `inner`.
	b.Event(9, wai, trace.EvLockAcquire, inner, 0)
	b.Event(9, wai, trace.EvLockObtain, inner, 0)
	b.Event(10, wai, trace.EvLockRelease, inner, 0)
	b.Event(12, sig, trace.EvLockRelease, outer, 0)
	// After sig released `outer`, further acquisitions are NOT under it.
	b.Event(14, wai, trace.EvLockAcquire, inner, 0)
	b.Event(14, wai, trace.EvLockObtain, inner, 0)
	b.Event(15, wai, trace.EvLockRelease, inner, 0)
	b.Exit(20, sig)
	b.Exit(20, wai)
	r, err := FromTrace(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	var oi *Edge
	for i := range r.Edges {
		if r.Edges[i].From == "outer" && r.Edges[i].To == "inner" {
			oi = &r.Edges[i]
		}
	}
	if oi == nil {
		t.Fatalf("missing outer->inner cross edge; edges = %+v", r.Edges)
	}
	if oi.Count != 1 || oi.CrossCount != 1 {
		t.Fatalf("outer->inner counted %d/%d, want exactly the pre-release acquisition (1/1)", oi.Count, oi.CrossCount)
	}
	if oi.CrossWitness == nil || oi.CrossWitness.OwnerName != "sig" || !strings.Contains(oi.CrossWitness.Via, "cv") {
		t.Fatalf("outer->inner witness = %+v", oi.CrossWitness)
	}
}

// TestMalformedInputs: structurally broken event sequences error
// rather than panic.
func TestMalformedInputs(t *testing.T) {
	if _, err := FromTrace(nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := FromTrace(&trace.Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
	b := trace.NewBuilder()
	p := b.Thread("p", trace.NoThread)
	b.Start(0, p)
	tr := b.Trace()
	tr.Events = append(tr.Events, trace.Event{T: 1, Thread: 99, Kind: trace.EvThreadExit})
	if _, err := FromTrace(tr); err == nil {
		t.Error("out-of-range thread accepted")
	}
	tr2 := b.Trace()
	tr2.Events = append(tr2.Events, trace.Event{T: 1, Thread: p, Kind: trace.EventKind(200)})
	if _, err := FromTrace(tr2); err == nil {
		t.Error("invalid kind accepted")
	}
	tr3 := b.Trace()
	tr3.Events = append(tr3.Events,
		trace.Event{T: 5, Thread: p, Kind: trace.EvThreadExit},
		trace.Event{T: 1, Thread: p, Kind: trace.EvThreadExit})
	if _, err := FromTrace(tr3); err == nil {
		t.Error("unsorted events accepted")
	}
}

// deadInheritedHoldTrace builds the trace of the Held bugfix: w
// inherits A from s1 via cv1, then B from s2 via cv2; s1 releases A,
// then w obtains C. With ownD, w first obtains its own lock D (while A
// is still live), so the C obtain has an own hold as well.
func deadInheritedHoldTrace(ownD bool) *trace.Trace {
	b := trace.NewBuilder()
	w := b.Thread("w", trace.NoThread)
	s1 := b.Thread("s1", w)
	s2 := b.Thread("s2", w)
	m := b.Mutex("m")
	la := b.Mutex("A")
	lb := b.Mutex("B")
	lc := b.Mutex("C")
	ld := b.Mutex("D")
	cv1 := b.Cond("cv1")
	cv2 := b.Cond("cv2")
	b.Start(0, w)
	b.Start(0, s1)
	b.Start(0, s2)
	b.CS(w, m, 1, 1, 2)
	b.Event(2, w, trace.EvCondWaitBegin, cv1, int64(m))
	b.Event(3, s1, trace.EvLockAcquire, la, 0)
	b.Event(3, s1, trace.EvLockObtain, la, 0)
	b.Event(4, s1, trace.EvCondSignal, cv1, 0)
	b.Event(5, w, trace.EvLockAcquire, m, 0)
	b.Event(5, w, trace.EvLockObtain, m, trace.LockArgContended)
	b.Event(5, w, trace.EvCondWaitEnd, cv1, int64(m))
	b.Event(6, w, trace.EvLockRelease, m, 0)
	b.CS(w, m, 7, 7, 8)
	b.Event(8, w, trace.EvCondWaitBegin, cv2, int64(m))
	b.Event(9, s2, trace.EvLockAcquire, lb, 0)
	b.Event(9, s2, trace.EvLockObtain, lb, 0)
	b.Event(10, s2, trace.EvCondSignal, cv2, 0)
	b.Event(11, w, trace.EvLockAcquire, m, 0)
	b.Event(11, w, trace.EvLockObtain, m, trace.LockArgContended)
	b.Event(11, w, trace.EvCondWaitEnd, cv2, int64(m))
	b.Event(12, w, trace.EvLockRelease, m, 0)
	if ownD {
		b.Event(13, w, trace.EvLockAcquire, ld, 0)
		b.Event(13, w, trace.EvLockObtain, ld, 0)
	}
	b.Event(14, s1, trace.EvLockRelease, la, 0)
	b.Event(15, w, trace.EvLockAcquire, lc, 0)
	b.Event(15, w, trace.EvLockObtain, lc, 0)
	b.Event(16, w, trace.EvLockRelease, lc, 0)
	if ownD {
		b.Event(17, w, trace.EvLockRelease, ld, 0)
	}
	b.Event(18, s2, trace.EvLockRelease, lb, 0)
	b.Exit(20, w)
	b.Exit(20, s1)
	b.Exit(20, s2)
	return b.Trace()
}

func edgeTo(r *Report, from, to string) *Edge {
	for i := range r.Edges {
		if r.Edges[i].From == from && r.Edges[i].To == to {
			return &r.Edges[i]
		}
	}
	return nil
}

// TestWitnessHeldAfterDeadInheritedHold: once an inherited hold's
// owner has released it, a later obtain's witness lists neither that
// hold nor any other entry twice.
func TestWitnessHeldAfterDeadInheritedHold(t *testing.T) {
	tr := deadInheritedHoldTrace(false)
	if err := trace.Validate(tr); err != nil {
		t.Fatal(err)
	}
	r, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	bc := edgeTo(r, "B", "C")
	if bc == nil || bc.CrossWitness == nil {
		t.Fatalf("missing cross-thread B->C edge; edges = %+v", r.Edges)
	}
	want := []string{"B (held by s2, via cond cv2 wakeup)"}
	if got := bc.CrossWitness.Held; strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("B->C witness Held = %q, want %q", got, want)
	}
	if e := edgeTo(r, "A", "C"); e != nil {
		t.Errorf("A was released before the C obtain, yet A->C = %+v", e)
	}
}

// TestWitnessHeldAfterDeadInheritedHoldOwnLock: the same with an own
// hold, whose edge is emitted first — the released A must not appear.
func TestWitnessHeldAfterDeadInheritedHoldOwnLock(t *testing.T) {
	tr := deadInheritedHoldTrace(true)
	if err := trace.Validate(tr); err != nil {
		t.Fatal(err)
	}
	r, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"D", "B (held by s2, via cond cv2 wakeup)"}
	for _, from := range []string{"D", "B"} {
		e := edgeTo(r, from, "C")
		if e == nil {
			t.Fatalf("missing %s->C edge; edges = %+v", from, r.Edges)
		}
		wit := e.Witness
		if e.CrossWitness != nil {
			wit = *e.CrossWitness
		}
		if got := wit.Held; strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("%s->C witness Held = %q, want %q", from, got, want)
		}
	}
}

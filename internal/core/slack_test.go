package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"critlock/internal/trace"
	"critlock/internal/tracetest"
)

// analyzeSlack analyzes tr and computes its slack over TraceSegments(tr).
func analyzeSlack(t *testing.T, tr *trace.Trace) *SlackAnalysis {
	t.Helper()
	an, err := AnalyzeDefault(tr)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := an.Slack(TraceSegments(tr))
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

// mixedAnalysis analyzes a 40K-event mixed program (channels, a cond,
// an RWMutex and a barrier) at the default configuration, in 4,096-event
// segments.
func mixedAnalysis(t *testing.T) (*trace.Trace, *Analysis) {
	t.Helper()
	tr, err := tracetest.Mixed(40_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeSource(TraceSource(tr), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr, an
}

// TestSlackInputs: Slack refuses a source whose event count differs
// from the analyzed trace's, an event on a thread the skeleton lacks
// and an analysis with no pass-1 records, and over the analyzed trace
// cut into any segment size it equals the oracle.
func TestSlackInputs(t *testing.T) {
	tr, an := mixedAnalysis(t)
	n := len(tr.Events)
	short := *tr
	short.Events = tr.Events[:n-1]
	long := *tr
	long.Events = append(slices.Clone(tr.Events), tr.Events[n-1])
	foreign := *tr
	foreign.Events = slices.Clone(tr.Events)
	foreign.Events[n/2].Thread = trace.ThreadID(len(tr.Threads))
	want := slackOracle(an, tr)
	for _, c := range []struct {
		name    string
		an      *Analysis
		src     SegmentSource
		wantErr string // "" = slack equals the oracle
	}{
		{"one event fewer", an, sizedSegments{&short, 4096}, fmt.Sprintf("slack over %d events, but the analysis ran over %d", n-1, n)},
		{"one event more", an, sizedSegments{&long, 4096}, fmt.Sprintf("slack over %d events, but the analysis ran over %d", n+1, n)},
		{"thread out of range", an, sizedSegments{&foreign, 4096}, fmt.Sprintf("event %d references thread %d out of range", n/2, len(tr.Threads))},
		{"zero analysis", &Analysis{}, TraceSegments(tr), "this analysis has none"},
		{"reference analysis", referenceAnalysis(tr, DefaultOptions()), TraceSegments(tr), "this analysis has none"},
		{"1-event segments", an, sizedSegments{tr, 1}, ""},
		{"3-event segments", an, sizedSegments{tr, 3}, ""},
		{"64K-event segments", an, sizedSegments{tr, 64 << 10}, ""},
	} {
		got, err := c.an.Slack(c.src)
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !reflect.DeepEqual(got, want):
			t.Errorf("%s: slack differs from the oracle\n got: %+v\nwant: %+v", c.name, got.Locks, want.Locks)
		}
	}
}

// TestSlackConcurrent: Slack only reads the analysis, so two calls on
// one Analysis at once (under -race, with the read-ahead on where there
// are cores for it) give what one call gives alone.
func TestSlackConcurrent(t *testing.T) {
	tr, an := mixedAnalysis(t)
	prev := readAheadFrom
	readAheadFrom = 0
	t.Cleanup(func() { readAheadFrom = prev })
	want, err := an.Slack(TraceSegments(tr))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*SlackAnalysis, 2)
	errs := make([]error, 2)
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = an.Slack(TraceSegments(tr))
		}()
	}
	wg.Wait()
	for k := range got {
		if errs[k] != nil {
			t.Fatalf("goroutine %d: %v", k, errs[k])
		}
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("goroutine %d: slack differs from a serial call", k)
		}
	}
}

func TestSlackFig1(t *testing.T) {
	sa := analyzeSlack(t, fig1Trace())
	byName := map[string]LockSlack{}
	for _, l := range sa.Locks {
		byName[l.Name] = l
	}
	// Critical locks have zero slack.
	for _, name := range []string{"L1", "L2", "L3"} {
		l := byName[name]
		if l.MinSlack != 0 {
			t.Errorf("%s slack = %d, want 0 (it is on the CP)", name, l.MinSlack)
		}
		if !l.OnCP {
			t.Errorf("%s not flagged OnCP", name)
		}
	}
	// L4 is off the path with positive slack: its last release (T4 at
	// 14, in fig1 microsecond units) precedes T4's contended L2 obtain
	// at 17 — the wait absorbs 3 units of slippage... but T3's release
	// at 13 feeds T4's obtain at 13 directly, making the chain tight;
	// the exact number matters less than: positive and finite.
	l4 := byName["L4"]
	if l4.MinSlack <= 0 {
		t.Errorf("L4 slack = %d, want > 0 (off the critical path)", l4.MinSlack)
	}
	if l4.OnCP {
		t.Error("L4 flagged OnCP")
	}
	// L4 must be the *only* near-critical candidate set at a generous
	// epsilon, and absent at epsilon below its slack.
	if nc := sa.NearCritical(l4.MinSlack); len(nc) != 1 || nc[0].Name != "L4" {
		t.Errorf("NearCritical(big) = %+v, want [L4]", nc)
	}
	if nc := sa.NearCritical(l4.MinSlack - 1); len(nc) != 0 {
		t.Errorf("NearCritical(small) = %+v, want empty", nc)
	}
}

// TestSlackTightChain: in a pure serial convoy everything has zero
// slack.
func TestSlackSerialChain(t *testing.T) {
	b := trace.NewBuilder()
	a := b.Thread("A", trace.NoThread)
	c := b.Thread("B", a)
	m := b.Mutex("chain")
	b.Start(0, a)
	b.Start(0, c)
	b.CS(a, m, 0, 0, 50)
	b.CS(c, m, 0, 50, 100)
	b.Exit(50, a)
	b.Exit(100, c)
	sa := analyzeSlack(t, b.Trace())
	if len(sa.Locks) != 1 || sa.Locks[0].MinSlack != 0 {
		t.Errorf("serial chain slack = %+v, want single lock at 0", sa.Locks)
	}
}

// TestSlackParallelBranch: a short side branch has slack equal to the
// time it finishes before the long branch.
func TestSlackParallelBranch(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	side := b.Thread("side", main)
	long := b.Mutex("long")
	short := b.Mutex("short")
	b.Start(0, main)
	b.Start(0, side)
	b.CS(main, long, 0, 0, 100) // the spine
	b.CS(side, short, 0, 0, 30) // finishes 70 before the end
	b.Exit(100, main)
	b.Exit(30, side)
	sa := analyzeSlack(t, b.Trace())
	byName := map[string]LockSlack{}
	for _, l := range sa.Locks {
		byName[l.Name] = l
	}
	if got := byName["long"].MinSlack; got != 0 {
		t.Errorf("long slack = %d, want 0", got)
	}
	// side's release at 30 can slip until its thread's exit slips to
	// 100: slack = 70.
	if got := byName["short"].MinSlack; got != 70 {
		t.Errorf("short slack = %d, want 70", got)
	}
}

// TestSlackWaitAbsorbs: a lock feeding a wait that has room to shrink
// gets that room as slack.
func TestSlackWaitAbsorption(t *testing.T) {
	b := trace.NewBuilder()
	a := b.Thread("A", trace.NoThread)
	c := b.Thread("B", a)
	feeder := b.Mutex("feeder")
	tail := b.Mutex("tail")
	b.Start(0, a)
	b.Start(0, c)
	// A releases feeder at 20; B blocked on feeder from 5, obtains at
	// 20, then computes to 100. A meanwhile computes to 60 and exits.
	b.CS(a, feeder, 0, 0, 20)
	b.Exit(60, a)
	b.CS(c, feeder, 5, 20, 30)
	b.CS(c, tail, 30, 30, 100)
	b.Exit(100, c)
	sa := analyzeSlack(t, b.Trace())
	byName := map[string]LockSlack{}
	for _, l := range sa.Locks {
		byName[l.Name] = l
	}
	// feeder's release feeds B's obtain directly (B was already
	// waiting): zero slack — it IS the binding dependency.
	if got := byName["feeder"].MinSlack; got != 0 {
		t.Errorf("feeder slack = %d, want 0", got)
	}
	if got := byName["tail"].MinSlack; got != 0 {
		t.Errorf("tail slack = %d, want 0", got)
	}
}

// TestSlackRepeatedNames pins the order of locks that tie on slack and
// name: only the lock-ID tie-break keeps it independent of map
// iteration.
func TestSlackRepeatedNames(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	p0, p1, p2 := b.Mutex("p"), b.Mutex("p"), b.Mutex("p")
	b.Start(0, main)
	b.CS(main, p2, 0, 0, 10)
	b.CS(main, p0, 10, 10, 20)
	b.CS(main, p1, 20, 20, 30)
	b.Exit(40, main)
	tr := b.Trace()
	an, err := AnalyzeDefault(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.ObjID{p0, p1, p2}
	for i := 0; i < 200; i++ {
		sa, err := an.Slack(TraceSegments(tr))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*SlackAnalysis{"Slack": sa, "oracle": slackOracle(an, tr)} {
			var ids []trace.ObjID
			for _, l := range got.Locks {
				if l.MinSlack != 0 {
					t.Fatalf("call %d: %s: lock %d slack %d, want 0", i, name, l.Lock, l.MinSlack)
				}
				ids = append(ids, l.Lock)
			}
			if !slices.Equal(ids, want) {
				t.Fatalf("call %d: %s orders locks %v, want %v", i, name, ids, want)
			}
		}
	}
}

// SlackOracle exposes the slack oracle to the external test package.
var SlackOracle = slackOracle

// slackOracle is the per-event-array slack computation that the
// streamed backward sweep replaced, kept as its test oracle: pass 1's
// annotations of the whole trace unpacked into arrays, the woken events
// of every waker inverted into lists, then one backward PERT pass by
// event index.
func slackOracle(a *Analysis, tr *trace.Trace) *SlackAnalysis {
	n := len(tr.Events)
	prev, waker, blocked, err := annotate(tr)
	if err != nil || n == 0 {
		return &SlackAnalysis{}
	}

	const inf = math.MaxInt64
	late := make([]int64, n)
	for i := range late {
		late[i] = inf
	}
	endT := int64(tr.End())
	for i, e := range tr.Events {
		if e.Kind == trace.EvThreadExit {
			late[i] = endT
		}
	}
	wakes := make([][]int32, n)
	next := make([]int32, n)
	for i := range next {
		next[i] = -1
	}
	for i := 0; i < n; i++ {
		if w := waker[i]; w >= 0 {
			wakes[w] = append(wakes[w], int32(i))
		}
		if p := prev[i]; p >= 0 {
			next[p] = int32(i)
		}
	}
	for i := n - 1; i >= 0; i-- {
		e := tr.Events[i]
		if succ := next[i]; succ >= 0 {
			d := int64(tr.Events[succ].T - e.T)
			if blocked[succ] && waker[succ] >= 0 {
				d = 0
			}
			if late[succ] != inf {
				late[i] = min(late[i], late[succ]-d)
			}
		}
		for _, w := range wakes[i] {
			if late[w] != inf {
				late[i] = min(late[i], late[w])
			}
		}
		if late[i] == inf {
			late[i] = endT
		}
	}

	minSlack := map[trace.ObjID]trace.Time{}
	for i, e := range tr.Events {
		if e.Kind != trace.EvLockRelease {
			continue
		}
		s := trace.Time(max(0, late[i]-int64(e.T)))
		if cur, seen := minSlack[e.Obj]; !seen || s < cur {
			minSlack[e.Obj] = s
		}
	}
	critical := map[trace.ObjID]bool{}
	for _, l := range a.Locks {
		if l.Critical {
			critical[l.Lock] = true
		}
	}
	sa := &SlackAnalysis{}
	for lock, s := range minSlack {
		sa.Locks = append(sa.Locks, LockSlack{
			Lock: lock, Name: tr.ObjName(lock), MinSlack: s, OnCP: critical[lock],
		})
	}
	sort.Slice(sa.Locks, func(i, j int) bool {
		a, b := sa.Locks[i], sa.Locks[j]
		if a.MinSlack != b.MinSlack {
			return a.MinSlack < b.MinSlack
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Lock < b.Lock
	})
	return sa
}

// annotate unpacks what the slack oracle needs per event: the
// preceding event on its thread (-1 if none), from a naive scan of
// tr.Events (scanPrev), and pass 1's waker (-1 if none) and whether the
// interval before it was spent blocked, from the records of an
// annotation store.
func annotate(tr *trace.Trace) (prev, waker []int32, blocked []bool, err error) {
	src := TraceSegments(tr)
	n := src.NumEvents()
	ann := newAnnStore(src)
	if _, err := pass1(src, src.Skeleton(), ann, nil, new(trace.Columns)); err != nil {
		return nil, nil, nil, err
	}
	prev, waker, blocked = scanPrev(tr), make([]int32, n), make([]bool, n)
	for i := range waker {
		waker[i] = -1
	}
	for _, seg := range ann.segs {
		for _, r := range seg.recs {
			waker[r.idx], blocked[r.idx] = r.waker, true
		}
	}
	return prev, waker, blocked, nil
}

// scanPrev returns, per event of tr, the index of the preceding event
// on its thread (-1 if none).
func scanPrev(tr *trace.Trace) []int32 {
	prev := make([]int32, len(tr.Events))
	last := map[trace.ThreadID]int32{}
	for i, e := range tr.Events {
		p, ok := last[e.Thread]
		if !ok {
			p = -1
		}
		prev[i] = p
		last[e.Thread] = int32(i)
	}
	return prev
}

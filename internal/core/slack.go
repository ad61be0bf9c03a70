package core

import (
	"math"
	"sort"

	"critlock/internal/trace"
)

// SlackAnalysis ranks locks by how close they are to the critical
// path. The paper's walk yields *one* critical path; a lock just off
// it (optimize the top lock and this one takes over) is invisible to
// CP Time %. Slack fills that gap.
//
// Classic PERT on the event graph: late(e) is the latest time event e
// could have occurred without delaying completion, computed backward
// over (a) intra-thread edges, whose execution time is fixed, and (b)
// cross-thread wake edges (release→obtain, last-arrive→depart,
// signal→wait-end, exit→join-end, create→start), which bind only
// while the woken side actually waited. slack(e) = late(e) − t(e); an
// event on the critical path has slack 0, and a lock's slack is the
// minimum over its release events — how much *all* of its critical
// sections could collectively slip before completion moves.
type SlackAnalysis struct {
	// Locks is sorted by ascending slack (most critical first).
	Locks []LockSlack
	// slackOf maps every event index to its slack (diagnostics).
	slackOf []trace.Time
}

// LockSlack is one lock's distance from the critical path.
type LockSlack struct {
	Lock trace.ObjID
	Name string
	// MinSlack is the smallest slack over the lock's critical-section
	// releases: 0 for critical locks, small for near-critical ones.
	MinSlack trace.Time
	// OnCP mirrors the walk result for cross-checking: true when the
	// full analysis marked the lock critical.
	OnCP bool
}

// Slack computes slack for every lock in the analyzed trace.
func (a *Analysis) Slack() *SlackAnalysis {
	tr := a.Trace
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

	// Sinks: each thread's exit event may be as late as the program's
	// completion time.
	endT := int64(tr.End())
	for i, e := range tr.Events {
		if e.Kind == trace.EvThreadExit {
			late[i] = endT
		}
	}

	// wakes[i] lists events woken by event i (inverted waker map);
	// next[i] is the event following i on its thread, or -1.
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

	// Backward pass in reverse (T, Seq) order — a valid reverse
	// topological order since every edge points forward in time.
	for i := n - 1; i >= 0; i-- {
		e := tr.Events[i]
		// Intra-thread successor: the executed interval between the
		// two events has fixed duration, so e can slip exactly as much
		// as its successor can.
		if succ := next[i]; succ >= 0 {
			d := int64(tr.Events[succ].T - e.T)
			if blocked[succ] && waker[succ] >= 0 {
				// The interval before an attributed unblock event is
				// wait: it absorbs slippage, so the edge only orders
				// (weight 0) — the successor's timing is bound by its
				// waker, not by us.
				d = 0
			}
			if late[succ] != inf {
				late[i] = min(late[i], late[succ]-d)
			}
		}
		// Cross-thread wake edges: the woken event cannot happen
		// before this one, so e may slip to the woken event's late
		// time (the edge itself has zero duration).
		for _, w := range wakes[i] {
			if late[w] != inf {
				late[i] = min(late[i], late[w])
			}
		}
		if late[i] == inf {
			// No successors constrain this event (e.g. the tail of a
			// thread that exits before the program ends): bounded by
			// its own thread's exit, which was seeded above; as a
			// final fallback use program end.
			late[i] = endT
		}
	}

	sa := &SlackAnalysis{slackOf: make([]trace.Time, n)}
	for i := range late {
		s := late[i] - int64(tr.Events[i].T)
		if s < 0 {
			s = 0
		}
		sa.slackOf[i] = trace.Time(s)
	}

	// Per-lock minimum over release events.
	minSlack := map[trace.ObjID]trace.Time{}
	for i, e := range tr.Events {
		if e.Kind != trace.EvLockRelease {
			continue
		}
		cur, seen := minSlack[e.Obj]
		if !seen || sa.slackOf[i] < cur {
			minSlack[e.Obj] = sa.slackOf[i]
		}
	}
	critical := map[trace.ObjID]bool{}
	for _, l := range a.Locks {
		if l.Critical {
			critical[l.Lock] = true
		}
	}
	for lock, s := range minSlack {
		sa.Locks = append(sa.Locks, LockSlack{
			Lock: lock, Name: tr.ObjName(lock), MinSlack: s, OnCP: critical[lock],
		})
	}
	sort.Slice(sa.Locks, func(i, j int) bool {
		if sa.Locks[i].MinSlack != sa.Locks[j].MinSlack {
			return sa.Locks[i].MinSlack < sa.Locks[j].MinSlack
		}
		return sa.Locks[i].Name < sa.Locks[j].Name
	})
	return sa
}

// NearCritical returns locks that are off the walked critical path but
// within eps of it — the "next bottleneck" candidates.
func (sa *SlackAnalysis) NearCritical(eps trace.Time) []LockSlack {
	var out []LockSlack
	for _, l := range sa.Locks {
		if !l.OnCP && l.MinSlack <= eps {
			out = append(out, l)
		}
	}
	return out
}

// annotate runs pass 1's waker resolution over an in-memory trace and
// unpacks its annotations: per event, the preceding event on its
// thread (-1 if none), the waker (-1 if none), and whether the interval
// before it was spent blocked.
func annotate(tr *trace.Trace) (prev, waker []int32, blocked []bool, err error) {
	src := memSegments{tr}
	n := src.NumEvents()
	ann, err := newAnnStore(src, n, "", 0)
	if err != nil {
		return nil, nil, nil, err
	}
	defer ann.remove()
	if _, err := pass1(src, tr, ann, 1, nil, new(trace.Columns)); err != nil {
		return nil, nil, nil, err
	}
	prev, waker, blocked = make([]int32, n), make([]int32, n), make([]bool, n)
	var lk, fl []byte
	for s := 0; s < src.NumSegments(); s++ {
		if lk, err = ann.readLinks(s, lk); err != nil {
			return nil, nil, nil, err
		}
		if fl, err = ann.readFlags(s, fl); err != nil {
			return nil, nil, nil, err
		}
		first, _ := src.SegmentBounds(s)
		for k := range fl {
			prev[first+k], waker[first+k] = getAnnLink(lk[k*annLinkSize:])
			blocked[first+k] = fl[k]&annBlocked != 0
		}
	}
	return prev, waker, blocked, nil
}

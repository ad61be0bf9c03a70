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
	// Locks is sorted by ascending slack (most critical first), ties
	// broken by name and then by lock ID.
	Locks []LockSlack
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

// slackTail is a thread's most recently swept event — during the
// backward sweep, the successor of the thread's next (earlier) event.
type slackTail struct {
	seen  bool
	late  int64
	t     trace.Time
	bound bool // an attributed unblock: its timing is set by its waker
}

// Slack computes slack for every lock of the analysis by replaying src,
// the source the analysis ran over (TraceSegments(tr) for an in-memory
// trace). It runs pass 1 into a fresh annotation store, then sweeps the
// segments backward once in reverse (T, Seq) order — a valid reverse
// topological order, since every edge points forward in time. The
// sweep keeps one entry per thread (the event after the current one on
// its thread) and one per wake whose woken event was swept but whose
// waker was not yet, so beyond pass 1's annotations (9 bytes per event,
// released segment by segment as the sweep passes) its state is
// O(threads + pending wakes).
func (a *Analysis) Slack(src SegmentSource) (*SlackAnalysis, error) {
	n := src.NumEvents()
	if n == 0 {
		return &SlackAnalysis{}, nil
	}
	skel := src.Skeleton()
	ann, err := newAnnStore(src, n, "", 0)
	if err != nil {
		return nil, err
	}
	defer ann.remove()
	cols := new(trace.Columns)
	if _, err := pass1(src, skel, ann, 1, nil, cols); err != nil {
		return nil, err
	}

	const inf = math.MaxInt64
	endT := int64(a.Start + a.CP.WallTime)
	tails := make([]slackTail, len(skel.Threads))
	// pending maps a waker's index to the latest time it may occur
	// without delaying the events it woke that were already swept.
	pending := map[int32]int64{}
	minSlack := map[trace.ObjID]trace.Time{}
	var lk, fl []byte
	for s := src.NumSegments() - 1; s >= 0; s-- {
		first, _ := src.SegmentBounds(s)
		if _, err := src.LoadColumns(s, cols); err != nil {
			return nil, err
		}
		if lk, err = ann.readLinks(s, lk); err != nil {
			return nil, err
		}
		if fl, err = ann.readFlags(s, fl); err != nil {
			return nil, err
		}
		for j := cols.Len() - 1; j >= 0; j-- {
			i := int32(first + j)
			t := cols.T[j]
			kind := trace.EventKind(cols.Kind[j])
			_, waker := getAnnLink(lk[j*annLinkSize:])
			late := int64(inf)
			if kind == trace.EvThreadExit {
				// Sinks: a thread's exit may be as late as the
				// program's completion time.
				late = endT
			}
			tail := &tails[cols.Thread[j]]
			if tail.seen {
				// Intra-thread successor: the executed interval between
				// the two events has fixed duration, so this event can
				// slip exactly as much as its successor. The interval
				// before an attributed unblock is wait: it absorbs
				// slippage, so that edge only orders (weight 0).
				d := int64(tail.t - t)
				if tail.bound {
					d = 0
				}
				late = min(late, tail.late-d)
			}
			// Cross-thread wake edges: a woken event cannot happen
			// before its waker, so the waker may slip to the woken
			// event's late time (the edge itself has zero duration).
			if w, ok := pending[i]; ok {
				late = min(late, w)
				delete(pending, i)
			}
			if late == inf {
				// No successor constrains this event: bounded by
				// program end.
				late = endT
			}
			*tail = slackTail{seen: true, late: late, t: t, bound: fl[j]&annBlocked != 0 && waker >= 0}
			// A waker that sorts after its woken event (a barrier
			// depart tied with its last arrive) was swept already and
			// is not constrained by it.
			if waker >= 0 && waker < i {
				if w, ok := pending[waker]; !ok || late < w {
					pending[waker] = late
				}
			}
			if kind == trace.EvLockRelease {
				sl := trace.Time(max(0, late-int64(t)))
				obj := trace.ObjID(cols.Obj[j])
				if cur, seen := minSlack[obj]; !seen || sl < cur {
					minSlack[obj] = sl
				}
			}
		}
		ann.release(s)
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
			Lock: lock, Name: skel.ObjName(lock), MinSlack: s, OnCP: critical[lock],
		})
	}
	sortLockSlack(sa.Locks)
	return sa, nil
}

// sortLockSlack orders locks by ascending slack, then name, then ID:
// names may repeat, and the result must not depend on map order.
func sortLockSlack(locks []LockSlack) {
	sort.Slice(locks, func(i, j int) bool {
		a, b := &locks[i], &locks[j]
		if a.MinSlack != b.MinSlack {
			return a.MinSlack < b.MinSlack
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Lock < b.Lock
	})
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

package core

import (
	"errors"
	"fmt"
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
// the events the analysis ran over in any segmentation
// (TraceSegments(tr) for an in-memory trace). It sweeps the segments
// backward once, in reverse (T, Seq) order — a valid reverse
// topological order, since every edge points forward in time — through
// a read-ahead (sweepSource), and takes each event's waker from the
// records pass 1 left on the analysis, read by global event index. The
// sweep keeps one entry per thread (the event after the current one on
// its thread) and one per wake whose woken event was swept but whose
// waker was not yet, so its state is O(threads + pending wakes). It
// only reads the analysis: concurrent calls on one Analysis are safe.
func (a *Analysis) Slack(src SegmentSource) (*SlackAnalysis, error) {
	if a.ann == nil {
		return nil, errors.New("core: slack needs the records of an analysis's pass 1, and this analysis has none")
	}
	if n := src.NumEvents(); n != a.ann.n {
		return nil, fmt.Errorf("core: slack over %d events, but the analysis ran over %d", n, a.ann.n)
	}
	src, done := sweepSource(src)
	defer done()
	skel := src.Skeleton()
	cols := new(trace.Columns)
	recs := recCursor{segs: a.ann.segs, s: len(a.ann.segs)}

	const inf = math.MaxInt64
	endT := int64(a.Start + a.CP.WallTime)
	tails := make([]slackTail, len(skel.Threads))
	// pending maps a waker's index to the latest time it may occur
	// without delaying the events it woke that were already swept.
	pending := map[int32]int64{}
	minSlack := map[trace.ObjID]trace.Time{}
	for s := src.NumSegments() - 1; s >= 0; s-- {
		first, _ := src.SegmentBounds(s)
		if _, err := src.LoadColumns(s, cols); err != nil {
			return nil, err
		}
		for j := cols.Len() - 1; j >= 0; j-- {
			i := int32(first + j)
			th := cols.Thread[j]
			if th < 0 || int(th) >= len(tails) {
				return nil, fmt.Errorf("core: event %d references thread %d out of range", i, th)
			}
			t := cols.T[j]
			kind := trace.EventKind(cols.Kind[j])
			waker := recs.waker(i)
			late := int64(inf)
			if kind == trace.EvThreadExit {
				// Sinks: a thread's exit may be as late as the
				// program's completion time.
				late = endT
			}
			tail := &tails[th]
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
			*tail = slackTail{seen: true, late: late, t: t, bound: waker >= 0}
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

// recCursor reads an analysis's records backward by global event
// index.
type recCursor struct {
	segs []annSeg
	s    int      // the segment recs belongs to
	recs []annRec // its records not yet read, latest last
}

// waker returns event i's waker: -1 if it has no record or its waker
// is unknown. Calls must come in descending i.
func (c *recCursor) waker(i int32) int32 {
	for len(c.recs) == 0 && c.s > 0 {
		c.s--
		c.recs = c.segs[c.s].recs
	}
	if k := len(c.recs) - 1; k >= 0 && c.recs[k].idx == i {
		w := c.recs[k].waker
		c.recs = c.recs[:k]
		return w
	}
	return -1
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

package core

import (
	"slices"
	"sort"

	"critlock/internal/trace"
)

// interval is a half-open-ish [From, To] time span.
type interval struct {
	From, To trace.Time
}

func (iv interval) dur() trace.Time { return iv.To - iv.From }

// mergeIntervals unions overlapping/adjacent intervals in place and
// returns the merged, sorted slice.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) < 2 {
		return ivs
	}
	slices.SortFunc(ivs, func(a, b interval) int {
		switch {
		case a.From < b.From:
			return -1
		case a.From > b.From:
			return 1
		}
		return 0
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.From <= last.To {
			if iv.To > last.To {
				last.To = iv.To
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersectLen returns the total overlap between two sorted,
// non-overlapping interval sets.
func intersectLen(a, b []interval) trace.Time {
	var total trace.Time
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].From
		if b[j].From > lo {
			lo = b[j].From
		}
		hi := a[i].To
		if b[j].To < hi {
			hi = b[j].To
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].To < b[j].To {
			i++
		} else {
			j++
		}
	}
	return total
}

// clipToWindow returns the length of ivs ∩ [from, to]. ivs must be
// sorted and non-overlapping.
func clipToWindow(ivs []interval, from, to trace.Time) trace.Time {
	var total trace.Time
	for _, iv := range ivs {
		if iv.From >= to {
			break
		}
		lo, hi := iv.From, iv.To
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// Composition breaks the critical path into execution categories.
type Composition struct {
	// Total is the critical-path length (the denominator).
	Total trace.Time
	// LockHold is path time spent inside at least one critical
	// section (nested holds counted once).
	LockHold trace.Time
	// Compute is executed path time outside every critical section.
	Compute trace.Time
	// Wait is blocked path time the walk could not attribute to a
	// waker (zero on simulator traces).
	Wait trace.Time
}

// LockHoldPct returns LockHold / Total as a percentage.
func (c Composition) LockHoldPct() float64 {
	if c.Total <= 0 {
		return 0
	}
	return 100 * float64(c.LockHold) / float64(c.Total)
}

// Composition computes the critical path's breakdown into critical
// section time, plain compute and unattributed waits. It answers the
// paper's aggregate question — how much of the completion time is
// fundamentally serialized by locks — in one number.
//
// LockHold reads the hot-interval index Windows reads: each hot
// interval is one invocation's hold clipped to its own thread's path
// pieces, and pieces never overlap in time, so the union of every hot
// interval, intersected with the executed pieces, is the executed path
// time inside at least one critical section.
func (a *Analysis) Composition() Composition {
	c := Composition{Total: a.CP.Length, Wait: a.CP.WaitTime}
	var hot, exec []interval
	for _, ivs := range a.hotByLock {
		hot = append(hot, ivs...)
	}
	for _, p := range a.CP.Pieces {
		if p.Kind == PieceExec {
			exec = append(exec, interval{p.From, p.To})
		}
	}
	c.LockHold = intersectLen(mergeIntervals(hot), mergeIntervals(exec))
	c.Compute = c.Total - c.LockHold - c.Wait
	if c.Compute < 0 {
		c.Compute = 0
	}
	return c
}

// Window is one time slice of the critical path with its per-lock
// shares.
type Window struct {
	// From and To bound the window in trace time.
	From, To trace.Time
	// PathTime is critical-path time inside the window.
	PathTime trace.Time
	// Locks lists each lock's hot-critical-section time inside the
	// window, descending; only locks with nonzero share appear.
	Locks []WindowLock
}

// WindowLock is one lock's share of a window.
type WindowLock struct {
	Name string
	Lock trace.ObjID
	// HoldOnCP is the lock's hot-CS time within the window.
	HoldOnCP trace.Time
	// PctOfWindow is HoldOnCP / the window's PathTime.
	PctOfWindow float64
}

// Top returns the dominant lock of the window (zero value if none).
func (w Window) Top() WindowLock {
	if len(w.Locks) == 0 {
		return WindowLock{Name: "<none>"}
	}
	return w.Locks[0]
}

// Windows slices the execution into n equal time windows and computes
// each lock's critical-path share per window. This is criticality over
// time — the information the paper's future work wants to feed to
// adaptive mechanisms (accelerated critical sections, speculative lock
// reordering, transactional memory): which lock matters *right now*.
func (a *Analysis) Windows(n int) []Window {
	if n <= 0 || a.CP.WallTime <= 0 {
		return nil
	}
	start, span := a.Start, a.CP.WallTime
	out := make([]Window, 0, n)

	// Critical-path pieces as global intervals for the denominator.
	var pathIvs []interval
	for _, p := range a.CP.Pieces {
		pathIvs = append(pathIvs, interval{p.From, p.To})
	}
	sort.Slice(pathIvs, func(i, j int) bool { return pathIvs[i].From < pathIvs[j].From })

	for w := 0; w < n; w++ {
		from := start + trace.Time(int64(span)*int64(w)/int64(n))
		to := start + trace.Time(int64(span)*int64(w+1)/int64(n))
		win := Window{From: from, To: to}
		win.PathTime = clipToWindow(pathIvs, from, to)
		for lock, ivs := range a.hotByLock {
			hold := clipToWindow(ivs, from, to)
			if hold <= 0 {
				continue
			}
			wl := WindowLock{Name: a.Trace.ObjName(lock), Lock: lock, HoldOnCP: hold}
			if win.PathTime > 0 {
				wl.PctOfWindow = 100 * float64(hold) / float64(win.PathTime)
			}
			win.Locks = append(win.Locks, wl)
		}
		sort.Slice(win.Locks, func(i, j int) bool {
			if win.Locks[i].HoldOnCP != win.Locks[j].HoldOnCP {
				return win.Locks[i].HoldOnCP > win.Locks[j].HoldOnCP
			}
			return win.Locks[i].Name < win.Locks[j].Name
		})
		out = append(out, win)
	}
	return out
}

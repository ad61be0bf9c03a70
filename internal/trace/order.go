package trace

import "slices"

// Canonical event ordering.
//
// Every trace finalization path (Collector.Finish, Builder.Trace,
// segment.Spiller.Finish) must order events identically, or the same
// execution would analyze differently depending on how its trace was
// produced.
// The canonical order is (T, Seq, Thread):
//
//   - T first: the analysis walks time.
//   - Seq second: sequence numbers are assigned in emission order, so
//     at equal timestamps they preserve causality — the release that
//     grants a contended lock is emitted before the woken thread's
//     obtain, and waker resolution (internal/core) depends on seeing
//     them in that order. Breaking ties by ThreadID instead would
//     reorder a same-timestamp handoff whenever the waiter has the
//     smaller ID, corrupting the critical-path walk.
//   - Thread last: a defensive total-order fallback for degenerate
//     traces with duplicate sequence numbers (e.g. hand-merged
//     streams); never reached for traces from our own backends.
//
// Less is the single source of truth; the k-way merge and every sort
// fall back to it.

// Less reports whether a precedes b in the canonical (T, Seq, Thread)
// event order.
func Less(a, b Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.Thread < b.Thread
}

// Compare is the three-way form of Less (for slices.SortFunc and
// friends).
func Compare(a, b Event) int {
	switch {
	case a.T < b.T:
		return -1
	case a.T > b.T:
		return 1
	case a.Seq < b.Seq:
		return -1
	case a.Seq > b.Seq:
		return 1
	case a.Thread < b.Thread:
		return -1
	case a.Thread > b.Thread:
		return 1
	}
	return 0
}

// EventsSorted reports whether events are in canonical order.
func EventsSorted(events []Event) bool {
	for i := 1; i < len(events); i++ {
		if Less(events[i], events[i-1]) {
			return false
		}
	}
	return true
}

// MergeSorted merges per-thread event buffers into one canonically
// ordered slice with a k-way heap merge: O(E log k) comparisons over
// already-sorted runs instead of the O(E log E) of re-sorting the
// concatenation, and no comparator closures on the per-event path.
//
// Each buffer is expected to be canonically ordered already (per-thread
// buffers are: a thread's timestamps are non-decreasing and its
// sequence numbers increase with emission order). A buffer that is not
// — possible only for hand-built traces — is sorted in place first, so
// the result is always exactly the canonical order of the union.
//
// MergeSorted takes ownership of the buffers (they may be sorted in
// place); the returned slice is freshly allocated.
func MergeSorted(buffers [][]Event) []Event {
	total := 0
	runs := buffers[:0]
	for _, b := range buffers {
		if len(b) == 0 {
			continue
		}
		if !EventsSorted(b) {
			slices.SortFunc(b, Compare)
		}
		total += len(b)
		runs = append(runs, b)
	}
	out := make([]Event, 0, total)
	return mergeInto(out, runs)
}

// mergeInto appends the k-way merge of the sorted runs to out and
// returns it. Runs must be non-empty and canonically ordered.
func mergeInto(out []Event, runs [][]Event) []Event {
	switch len(runs) {
	case 0:
		return out
	case 1:
		return append(out, runs[0]...)
	case 2:
		return merge2(out, runs[0], runs[1])
	}

	// Binary min-heap of runs keyed by their head event. sift-down
	// compares head events directly — no interface or closure calls.
	h := runs
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 1 {
		out = append(out, h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return append(out, h[0]...)
}

// merge2 is the two-way fast path.
func merge2(out, a, b []Event) []Event {
	for len(a) > 0 && len(b) > 0 {
		if Less(b[0], a[0]) {
			out = append(out, b[0])
			b = b[1:]
		} else {
			out = append(out, a[0])
			a = a[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// siftDown restores the heap property at i, ordering runs by their
// head event.
func siftDown(h [][]Event, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && Less(h[l][0], h[min][0]) {
			min = l
		}
		if r < len(h) && Less(h[r][0], h[min][0]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// SortEvents puts events into canonical order in place.
//
// The fast path exploits that event streams are a time-ordered
// interleaving of per-thread runs: it partitions events by thread (one
// flat scratch allocation), verifies each run — per-thread runs are
// almost always already ordered — and k-way merges them back, which is
// O(E log T) instead of the O(E log E) comparison sort. Events with
// out-of-range thread IDs, or a genuinely unordered run, fall back to
// a comparison sort of the affected part.
func SortEvents(events []Event) {
	if EventsSorted(events) {
		return
	}
	const maxDenseThreads = 1 << 20
	maxThread := ThreadID(-1)
	for i := range events {
		if events[i].Thread < 0 || events[i].Thread > maxDenseThreads {
			slices.SortFunc(events, Compare)
			return
		}
		if events[i].Thread > maxThread {
			maxThread = events[i].Thread
		}
	}
	nThreads := int(maxThread) + 1

	// Partition into per-thread runs carved out of one scratch slice.
	counts := make([]int, nThreads+1)
	for i := range events {
		counts[events[i].Thread+1]++
	}
	for t := 1; t <= nThreads; t++ {
		counts[t] += counts[t-1]
	}
	scratch := make([]Event, len(events))
	fill := make([]int, nThreads)
	for i := range events {
		t := events[i].Thread
		scratch[counts[t]+fill[t]] = events[i]
		fill[t]++
	}
	runs := make([][]Event, 0, nThreads)
	for t := 0; t < nThreads; t++ {
		run := scratch[counts[t] : counts[t]+fill[t]]
		if len(run) == 0 {
			continue
		}
		if !EventsSorted(run) {
			slices.SortFunc(run, Compare)
		}
		runs = append(runs, run)
	}
	mergeInto(events[:0], runs)
}

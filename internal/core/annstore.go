package core

import "sort"

// Annotations: pass 1's output for the backward walk and slack's
// sweep, kept sparse, per segment:
//
//   - records — (index, waker) for each blocked event, the only events
//     whose waker the readers look up (every resolution site marks its
//     event blocked, so an event with no record was not blocked and has
//     no waker; waker -1 is blocked with the waker unknown), 8 bytes
//     each, in index order;
//   - entry links — for each thread with events in the segment, the
//     global index of its last event before the segment (-1 if none),
//     8 bytes each. A reader derives every event's same-thread
//     predecessor from them and the segment's thread column.
//
// Blocked events are about one in six in lock-heavy traces and entry
// links one per thread per segment, so the store costs about 1.25
// bytes per event there, against the 9 of a dense per-event plane.
// Like the critical path, it is linear in the trace and stays in
// memory. The walk drops the entry links when it returns; the Analysis
// keeps the records for Slack.

// annRec is one blocked event: its global index and its waker (-1 if
// unknown).
type annRec struct {
	idx   int32
	waker int32
}

// annEntry is a thread's last event before a segment (-1 if none).
type annEntry struct {
	thread int32
	prev   int32
}

// annStore holds pass 1's annotations, one annSeg per segment, as
// exact-size copies. When its scan ends, pass 1 merges its deferred
// resolutions (pass1Sync.finish) into the segments they fall in
// (patch); from then on the store is read-only, so any number of
// goroutines may read it.
type annStore struct {
	firsts []int // global first event index per segment
	n      int   // events over all segments
	segs   []annSeg
}

// annSeg is one segment's records and entry links.
type annSeg struct {
	recs    []annRec
	entries []annEntry
}

// newAnnStore sizes the store for src's segments.
func newAnnStore(src SegmentSource) *annStore {
	nSegs := src.NumSegments()
	a := &annStore{firsts: make([]int, nSegs), n: src.NumEvents(), segs: make([]annSeg, nSegs)}
	for s := range a.firsts {
		a.firsts[s], _ = src.SegmentBounds(s)
	}
	return a
}

// commit stores copies of segment s's records and entry links, which
// the caller may reuse afterwards.
func (a *annStore) commit(s int, recs []annRec, entries []annEntry) {
	a.segs[s] = annSeg{recs: exact(recs), entries: exact(entries)}
}

// patch merges pass 1's deferred resolutions into the records: each
// marks its event blocked with the given waker, adding a record or
// replacing the waker of the one already there.
func (a *annStore) patch(p []annRec) {
	sort.Slice(p, func(i, j int) bool { return p[i].idx < p[j].idx })
	for len(p) > 0 {
		s := sort.SearchInts(a.firsts, int(p[0].idx)+1) - 1
		end := a.n
		if s+1 < len(a.firsts) {
			end = a.firsts[s+1]
		}
		k := sort.Search(len(p), func(k int) bool { return int(p[k].idx) >= end })
		seg := &a.segs[s]
		seg.recs = exact(mergePatches(nil, seg.recs, p[:k]))
		p = p[k:]
	}
}

// dropEntries releases every segment's entry links, which only the
// walk reads.
func (a *annStore) dropEntries() {
	for s := range a.segs {
		a.segs[s].entries = nil
	}
}

// mergePatches appends to out the merge of sorted records and sorted
// patches, a patch replacing the record of its event.
func mergePatches(out, recs, patches []annRec) []annRec {
	for len(recs) > 0 || len(patches) > 0 {
		switch {
		case len(patches) == 0 || len(recs) > 0 && recs[0].idx < patches[0].idx:
			out = append(out, recs[0])
			recs = recs[1:]
		case len(recs) > 0 && recs[0].idx == patches[0].idx:
			out = append(out, patches[0])
			recs, patches = recs[1:], patches[1:]
		default:
			out = append(out, patches[0])
			patches = patches[1:]
		}
	}
	return out
}

// exact returns a copy of s with no spare capacity.
func exact[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// sized returns buf resized to need elements, reallocated only when
// its capacity is short.
func sized[T any](buf []T, need int) []T {
	if cap(buf) < need {
		return make([]T, need)
	}
	return buf[:need]
}

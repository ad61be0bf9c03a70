package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
)

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
// links one per thread per segment, so the store costs about 1.4 bytes
// per event there, against the 9 of a dense per-event plane. The walk
// is their only reader in an analysis and removes them the moment it
// returns. Slack's backward sweep reads its own store.
const (
	annRecSize   = 8
	annEntrySize = 8
)

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

// DefaultAnnotationBudget is the resident-annotation ceiling below
// which pass 1 keeps its per-segment records and entry links in
// memory: about 1.4 bytes per event on a lock convoy, so the default
// covers traces of well over 100M events before spilling to a temp
// file.
const DefaultAnnotationBudget int64 = 256 << 20

// annStore holds pass 1's annotations, one annSeg per segment. Segments
// stay resident, as exact-size copies, while the running total of
// their bytes fits the budget; from the first segment that does not
// fit on, every segment is appended to a temp file in TmpDir, created
// on that first spill. Deferred resolutions (pass1Sync.finish) are a
// sorted patch list merged into a segment's records as they are read,
// so both modes read identically.
//
// Concurrency: pass 1 writes (commit, setPatches) from one goroutine
// and finishes before anything reads; the reader (the walk, or slack's
// sweep) is one goroutine too.
type annStore struct {
	firsts   []int // global first event index per segment
	counts   []int
	segs     []annSeg
	budget   int64 // < 0: spill every segment
	resident int64 // bytes of resident records and entry links
	spilling bool  // a segment has spilled, so every later one does
	tmpDir   string
	f        *os.File
	end      int64    // spill file length
	patches  []annRec // sorted by idx
	buf      []byte   // spill encode/decode scratch
	recBuf   []annRec // load's decoded records and entry links
	entBuf   []annEntry
	merged   []annRec // load's patched records
}

// annSeg is one segment's annotations: resident slices, or the spill
// file offset of its records followed by its entry links.
type annSeg struct {
	recs     []annRec
	entries  []annEntry
	off      int64
	nRecs    int
	nEntries int
	spilled  bool
}

// newAnnStore sizes the store for src's segments under budget
// (0 = DefaultAnnotationBudget, negative = always spill), spilling to
// tmpDir ("" = os.TempDir).
func newAnnStore(src SegmentSource, tmpDir string, budget int64) *annStore {
	if budget == 0 {
		budget = DefaultAnnotationBudget
	}
	nSegs := src.NumSegments()
	a := &annStore{firsts: make([]int, nSegs), counts: make([]int, nSegs), segs: make([]annSeg, nSegs),
		budget: budget, tmpDir: tmpDir}
	for s := 0; s < nSegs; s++ {
		a.firsts[s], a.counts[s] = src.SegmentBounds(s)
	}
	return a
}

// commit stores segment s's records and entry links, which the caller
// may reuse afterwards, and reports how many bytes were spilled (0
// when the segment stays resident).
func (a *annStore) commit(s int, recs []annRec, entries []annEntry) (int64, error) {
	size := int64(len(recs)*annRecSize + len(entries)*annEntrySize)
	seg := &a.segs[s]
	seg.nRecs, seg.nEntries = len(recs), len(entries)
	if !a.spilling && a.budget >= 0 && a.resident+size <= a.budget {
		a.resident += size
		seg.recs = make([]annRec, len(recs))
		copy(seg.recs, recs)
		seg.entries = make([]annEntry, len(entries))
		copy(seg.entries, entries)
		return 0, nil
	}
	a.spilling = true
	if a.f == nil {
		f, err := os.CreateTemp(a.tmpDir, "cla-ann-*.tmp")
		if err != nil {
			return 0, fmt.Errorf("core: creating annotation file: %w", err)
		}
		a.f = f
	}
	b := sized(a.buf, int(size))
	a.buf = b
	for k, r := range recs {
		binary.LittleEndian.PutUint32(b[k*annRecSize:], uint32(r.idx))
		binary.LittleEndian.PutUint32(b[k*annRecSize+4:], uint32(r.waker))
	}
	e := b[len(recs)*annRecSize:]
	for k, en := range entries {
		binary.LittleEndian.PutUint32(e[k*annEntrySize:], uint32(en.thread))
		binary.LittleEndian.PutUint32(e[k*annEntrySize+4:], uint32(en.prev))
	}
	if _, err := a.f.WriteAt(b, a.end); err != nil {
		return 0, fmt.Errorf("core: writing annotations: %w", err)
	}
	seg.off, seg.spilled = a.end, true
	a.end += size
	return size, nil
}

// setPatches records pass 1's deferred resolutions: each marks its
// event blocked with the given waker, adding a record or replacing the
// waker of the one already there.
func (a *annStore) setPatches(p []annRec) {
	sort.Slice(p, func(i, j int) bool { return p[i].idx < p[j].idx })
	a.patches = p
}

// load returns segment s's records, patches merged in, and its entry
// links. Resident, unpatched segments come back with no copy; either
// way the slices are valid until the next load.
func (a *annStore) load(s int) ([]annRec, []annEntry, error) {
	seg := &a.segs[s]
	recs, entries := seg.recs, seg.entries
	if seg.spilled {
		size := seg.nRecs*annRecSize + seg.nEntries*annEntrySize
		b := sized(a.buf, size)
		a.buf = b
		if _, err := a.f.ReadAt(b, seg.off); err != nil {
			return nil, nil, fmt.Errorf("core: reading annotations: %w", err)
		}
		recs = a.recBuf[:0]
		for k := 0; k < seg.nRecs; k++ {
			recs = append(recs, annRec{
				idx:   int32(binary.LittleEndian.Uint32(b[k*annRecSize:])),
				waker: int32(binary.LittleEndian.Uint32(b[k*annRecSize+4:])),
			})
		}
		a.recBuf = recs
		e := b[seg.nRecs*annRecSize:]
		entries = a.entBuf[:0]
		for k := 0; k < seg.nEntries; k++ {
			entries = append(entries, annEntry{
				thread: int32(binary.LittleEndian.Uint32(e[k*annEntrySize:])),
				prev:   int32(binary.LittleEndian.Uint32(e[k*annEntrySize+4:])),
			})
		}
		a.entBuf = entries
	}
	first, end := int32(a.firsts[s]), int32(a.firsts[s]+a.counts[s])
	lo := sort.Search(len(a.patches), func(k int) bool { return a.patches[k].idx >= first })
	hi := lo + sort.Search(len(a.patches)-lo, func(k int) bool { return a.patches[lo+k].idx >= end })
	if lo < hi {
		recs = mergePatches(a.merged[:0], recs, a.patches[lo:hi])
		a.merged = recs
	}
	return recs, entries, nil
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

// release drops segment s's resident annotations once slack's sweep
// has consumed them, shrinking the live heap as it advances (a no-op
// for a spilled segment: remove reclaims the file).
func (a *annStore) release(s int) {
	a.segs[s].recs, a.segs[s].entries = nil, nil
}

// sized returns buf resized to need elements, reallocated only when
// its capacity is short.
func sized[T any](buf []T, need int) []T {
	if cap(buf) < need {
		return make([]T, need)
	}
	return buf[:need]
}

// remove releases the spill file, if any, and every resident segment.
func (a *annStore) remove() {
	if a.f != nil {
		name := a.f.Name()
		a.f.Close()
		os.Remove(name)
		a.f = nil
	}
	a.segs, a.patches, a.buf, a.recBuf, a.entBuf, a.merged = nil, nil, nil, nil, nil, nil
}

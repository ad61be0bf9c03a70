package core

import (
	"testing"
	"unsafe"

	"critlock/internal/trace"
)

// TraceSourceBesideFrom is TraceSource with the trace size from which
// validation runs beside the passes set to n (given 2 or more cores).
func TraceSourceBesideFrom(tr *trace.Trace, n int) Source { return traceSource{tr, n} }

// SetReadAheadFrom sets the source size, in events, from which
// sequential segment sweeps read ahead (given 2 or more cores and
// segments) to n until t ends: 0 forces the read-ahead on, a size
// beyond every test trace forces it off. Tests that call it must not
// run in parallel with others.
func SetReadAheadFrom(t testing.TB, n int) {
	prev := readAheadFrom
	readAheadFrom = n
	t.Cleanup(func() { readAheadFrom = prev })
}

// DefaultWalkWindow is the walk window the analysis runs at.
var DefaultWalkWindow = walkWindow

// SetWalkWindow sets how many decoded segments the backward walk keeps
// resident to w until t ends. Tests that call it must not run in
// parallel with others.
func SetWalkWindow(t testing.TB, w int) {
	prev := walkWindow
	walkWindow = w
	t.Cleanup(func() { walkWindow = prev })
}

// Pass3Ranges is how many ranges the analysis splits pass 3 of src
// into.
func Pass3Ranges(src SegmentSource) int { return pass3Ranges(src) }

// ReadAheadDepth is how many segment decodes a sequential sweep keeps
// running beside its caller.
const ReadAheadDepth = readAheadDepth

// AnnRecSize and AnnEntrySize are the bytes an annotation record and
// entry link take.
const (
	AnnRecSize   = int(unsafe.Sizeof(annRec{}))
	AnnEntrySize = int(unsafe.Sizeof(annEntry{}))
)

// Annotations runs pass 1 of src into an annotation store and reports
// the bytes its slices hold (by capacity) and its records and entry
// links.
func Annotations(src SegmentSource) (bytes int64, recs, entries int, err error) {
	ann := newAnnStore(src)
	if _, err := pass1(src, src.Skeleton(), ann, nil, new(trace.Columns)); err != nil {
		return 0, 0, 0, err
	}
	for _, s := range ann.segs {
		recs += len(s.recs)
		entries += len(s.entries)
		bytes += int64(cap(s.recs)*AnnRecSize + cap(s.entries)*AnnEntrySize)
	}
	return bytes, recs, entries, nil
}

package core

import (
	"testing"

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

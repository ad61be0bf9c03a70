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

// Pass3Ranges is how many ranges the analysis splits pass 3 of src
// into under cfg.
func Pass3Ranges(src SegmentSource, cfg Config) int { return pass3Ranges(src, cfg) }

// ReadAheadDepth is how many segment decodes a sequential sweep keeps
// running beside its caller.
const ReadAheadDepth = readAheadDepth

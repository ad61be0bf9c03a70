package core

import "critlock/internal/trace"

// TraceSourceBesideFrom is TraceSource with the trace size from which
// validation runs beside the passes set to n (given 2 or more cores).
func TraceSourceBesideFrom(tr *trace.Trace, n int) Source { return traceSource{tr, n} }

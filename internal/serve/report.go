package serve

import "critlock/internal/report"

// Report is the JSON analysis result clasrv serves. The shape lives
// in internal/report (report.Export) so that cla -jsonreport writes
// the identical format and clalint -report can join on it; see that
// package for field documentation.
type Report = report.Export

// Summary, TimelinePiece and TimelineJump are re-exported for
// existing callers of this package.
type (
	Summary       = report.ExportSummary
	TimelinePiece = report.TimelinePiece
	TimelineJump  = report.TimelineJump
)

package report

import (
	"encoding/json"
	"io"

	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/trace"
)

// Export is the canonical JSON analysis report, shared by every
// producer: clasrv serves it from /v1/analyze and cla writes it with
// -jsonreport. Every field is a deterministic function of the trace
// and the analysis options — no wall-clock timestamps — so reports
// cache by content hash, diff cleanly against goldens, and join
// stably against static analysis (clalint -report matches static lock
// sites to the Locks table by lock name).
type Export struct {
	// ID identifies the report (clasrv: the content-hash cache key;
	// cla: empty).
	ID string `json:"id"`
	// Source describes where the events came from ("trace" for body
	// uploads, "segments:<dir>" for segment directories).
	Source string `json:"source"`
	// Streamed reports whether the input was a segmented trace (a
	// segment directory rather than an in-memory trace); the analysis
	// then keeps only the trace skeleton, so the report has no
	// event-replay sections.
	Streamed bool `json:"streamed"`

	Summary  ExportSummary      `json:"summary"`
	Totals   core.Totals        `json:"totals"`
	Locks    []core.LockStats   `json:"locks"`
	Chans    []core.ChanStats   `json:"chans,omitempty"`
	Threads  []core.ThreadStats `json:"threads"`
	Timeline []TimelinePiece    `json:"timeline"`
	Jumps    []TimelineJump     `json:"jumps"`

	// Hazards is the dynamic hazard prediction (feasible deadlocks,
	// lost signals, guard inconsistencies), present when the producer
	// ran the hazard pass (cla -hazards, clasrv /v1/hazards).
	Hazards *hazard.Report `json:"hazards,omitempty"`
}

// ExportSummary is the whole-run critical-path header.
type ExportSummary struct {
	CPLength   trace.Time     `json:"cp_length"`
	ExecTime   trace.Time     `json:"exec_time"`
	WaitTime   trace.Time     `json:"wait_time"`
	WallTime   trace.Time     `json:"wall_time"`
	Coverage   float64        `json:"coverage"`
	LastThread trace.ThreadID `json:"last_thread"`
	Steps      int            `json:"steps"`
	Jumps      int            `json:"jumps"`
}

// TimelinePiece is one walked critical-path interval.
type TimelinePiece struct {
	Thread trace.ThreadID `json:"thread"`
	From   trace.Time     `json:"from"`
	To     trace.Time     `json:"to"`
	Wait   bool           `json:"wait,omitempty"`
}

// TimelineJump is one cross-thread hop of the critical path.
type TimelineJump struct {
	T    trace.Time     `json:"t"`
	From trace.ThreadID `json:"from"`
	To   trace.ThreadID `json:"to"`
	Kind string         `json:"kind"`
	Obj  string         `json:"obj,omitempty"`
	// Wait is the blocked time the jump absorbed on the destination
	// thread (0 for thread-start jumps).
	Wait trace.Time `json:"wait,omitempty"`
}

// BuildExport flattens an analysis into the canonical JSON report.
func BuildExport(id, source string, streamed bool, an *core.Analysis) *Export {
	rep := &Export{
		ID:       id,
		Source:   source,
		Streamed: streamed,
		Summary: ExportSummary{
			CPLength:   an.CP.Length,
			ExecTime:   an.CP.ExecTime,
			WaitTime:   an.CP.WaitTime,
			WallTime:   an.CP.WallTime,
			Coverage:   an.CP.Coverage(),
			LastThread: an.CP.LastThread,
			Steps:      an.CP.Steps,
			Jumps:      an.CP.Jumps,
		},
		Totals:  an.Totals,
		Locks:   an.Locks,
		Chans:   an.Chans,
		Threads: an.Threads,
	}
	rep.Timeline = make([]TimelinePiece, len(an.CP.Pieces))
	for i, p := range an.CP.Pieces {
		rep.Timeline[i] = TimelinePiece{
			Thread: p.Thread, From: p.From, To: p.To,
			Wait: p.Kind == core.PieceWait,
		}
	}
	rep.Jumps = make([]TimelineJump, len(an.CP.JumpLog))
	for i, j := range an.CP.JumpLog {
		tj := TimelineJump{T: j.T, From: j.From, To: j.To, Kind: j.Kind.String(), Wait: j.Wait}
		if j.Obj != trace.NoObj {
			tj.Obj = an.Trace.ObjName(j.Obj)
		}
		rep.Jumps[i] = tj
	}
	return rep
}

// WriteExport writes the indented JSON form (the cla -jsonreport
// format, byte-identical to what clasrv serves for the same trace and
// options apart from ID/Source).
func WriteExport(w io.Writer, rep *Export) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadExport parses a JSON analysis report (clalint -report input).
func ReadExport(r io.Reader) (*Export, error) {
	var rep Export
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Package input is the one way a recorded trace reaches the analysis
// (the paper's post-processing module, Fig. 3): cla, cladiff, clagen,
// clalint -dynamic and clasrv open a trace file, an upload or a segment
// directory here and analyze it, hazard fold included, with Analyze.
package input

import (
	"fmt"
	"os"
	"time"

	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/segment"
	"critlock/internal/trace"
)

// Input is one opened trace.
type Input struct {
	Name     string // the path or upload name it was opened as
	Streamed bool   // a segment directory, analyzed in bounded memory
	// Segments is what every event-replaying section reads: the open
	// directory, or the decoded trace as in-memory segments.
	Segments core.SegmentSource
	Source   core.Source  // what the analysis runs over
	Trace    *trace.Trace // the decoded file or upload; nil for a directory
	close    func() error
}

// Dir opens the segment directory dir, memory-mapping its segment
// files when mmap is true and reading them into buffers otherwise.
func Dir(dir string, mmap bool) (*Input, error) {
	rdr, err := segment.OpenWith(dir, segment.ReadOptions{NoMmap: !mmap})
	if err != nil {
		return nil, &Error{StageOpen, dir, err}
	}
	return &Input{Name: dir, Streamed: true, Segments: rdr, Source: core.StreamSource(rdr), close: rdr.Close}, nil
}

// File reads and decodes the trace file at path. A read failure is the
// os error as it is.
func File(path string) (*Input, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Bytes(path, data)
}

// Bytes decodes data, a binary or a JSON trace, as the input name.
func Bytes(name string, data []byte) (*Input, error) {
	tr, err := trace.Decode(data)
	if err != nil {
		return nil, &Error{StageDecode, name, err}
	}
	return &Input{Name: name, Segments: core.TraceSegments(tr), Source: core.TraceSource(tr), Trace: tr}, nil
}

// Close releases a directory's mapped segments; later calls do nothing.
func (in *Input) Close() error {
	c := in.close
	in.close = nil
	if c == nil {
		return nil
	}
	return c()
}

// Result is an analysis and, when asked for, the hazard report and the
// lock order of one hazard fold.
type Result struct {
	Analysis  *core.Analysis
	Hazards   *hazard.Report
	LockOrder *hazard.LockOrder
}

// Analyze runs the analysis under cfg and, when hazards is true, one
// hazard fold, reported to cfg.Observer as the "hazard" phase: over a
// decoded trace's events in place, or over a directory's columns.
func (in *Input) Analyze(cfg core.Config, hazards bool) (*Result, error) {
	an, err := core.AnalyzeSource(in.Source, cfg)
	if err != nil {
		return nil, &Error{StageAnalyze, in.Name, err}
	}
	res := &Result{Analysis: an}
	if !hazards {
		return res, nil
	}
	start := time.Now()
	if cfg.Observer != nil {
		cfg.Observer.PhaseStart("hazard")
	}
	if in.Trace != nil {
		res.Hazards, res.LockOrder, err = hazard.FoldTrace(in.Trace)
	} else {
		res.Hazards, res.LockOrder, err = hazard.Fold(in.Segments)
	}
	if err != nil {
		return nil, &Error{StageHazard, in.Name, err}
	}
	if cfg.Observer != nil {
		cfg.Observer.PhaseDone("hazard", time.Since(start))
	}
	return res, nil
}

// Stage is the step an input failed at.
type Stage uint8

const (
	StageOpen    Stage = iota + 1 // opening a segment directory
	StageDecode                   // decoding a file or an upload
	StageAnalyze                  // the analysis
	StageHazard                   // the hazard fold
)

// Error is a failure to open or analyze the input Name. Its text is
// cla's; clalint and clasrv word it from Stage and Err. errors.Is and
// errors.As see through it to Err, so the typed trace errors keep
// their meaning.
type Error struct {
	Stage Stage
	Name  string
	Err   error
}

func (e *Error) Error() string {
	switch e.Stage {
	case StageDecode:
		return fmt.Sprintf("reading %s: %v", e.Name, e.Err)
	case StageHazard:
		return fmt.Sprintf("hazard analysis of %s: %v", e.Name, e.Err)
	}
	return fmt.Sprintf("analyzing %s: %v", e.Name, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

package lint

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"

	"critlock/internal/core"
	"critlock/internal/input"
	"critlock/internal/report"
)

// Package is one loaded, best-effort type-checked directory package,
// exposed for consumers beyond the linter's own passes (the
// source-to-source instrumenter in internal/instr). The type
// information carries the linter's tolerance guarantees: lookups must
// handle missing entries, and imports outside the resolved stdlib
// subset appear as empty stub packages.
type Package struct {
	// Name is the package clause name.
	Name string
	// Dir is the display directory (slash-separated, relative to the
	// load root when possible).
	Dir string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the parsed sources, in deterministic order.
	Files []*File
	// Info is the partial type information for the package.
	Info *types.Info
	// Types is the checked package object; an object in Info with
	// Pkg() == Types is declared in this package. May be nil when
	// checking panicked.
	Types *types.Package
}

// File is one parsed source file of a Package.
type File struct {
	// Path is the display path (slash-separated, relative to the load
	// root when possible) — for files under the root it doubles as the
	// relative output path when writing a rewritten tree.
	Path string
	// AST is the parsed file, with comments.
	AST *ast.File
	// SyncName is the local import name of "sync" ("" if not
	// imported); TimeName likewise for "time".
	SyncName string
	TimeName string
}

// LoadReport reads a report.Export JSON file — the `clalint -report`
// input. It is the narrow half of the shared export-loading path;
// `clalint -dynamic` goes through LoadDynamic, which accepts raw
// traces and segment directories too and funnels JSON files here.
func LoadReport(path string) (*report.Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := report.ReadExport(f)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return rep, nil
}

// LoadDynamic loads a dynamic analysis for cross-referencing from any
// producer format, sniffed from the argument:
//
//   - a segment directory: the bounded-memory analysis pipeline plus
//     the sequential hazard fold stream it,
//   - a JSON analysis report (cla -jsonreport / clasrv): parsed as-is —
//     it carries a hazards section only if its producer ran the pass
//     (cla -hazards -jsonreport, clasrv /v1/hazards),
//   - a trace file (binary .cltr or JSON): analyzed in memory, with
//     the hazard pass.
//
// Traces and segment directories are opened and analyzed through
// internal/input and always yield a freshly computed hazards section,
// so `clalint -dynamic` on either joins both the criticality ranking
// and the dynamic hazard findings.
func LoadDynamic(path string) (*report.Export, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var in *input.Input
	source := path
	if st.IsDir() {
		in, err = input.Dir(path, true)
		source = "segments:" + path
	} else {
		var data []byte
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		// An analysis report is a JSON object with a "summary" key;
		// divert it before decoding the file as a binary or JSON trace.
		var probe map[string]json.RawMessage
		if json.Unmarshal(data, &probe) == nil {
			if _, ok := probe["summary"]; ok {
				return LoadReport(path)
			}
		}
		in, err = input.Bytes(path, data)
	}
	if err != nil {
		return nil, dynamicError(err)
	}
	defer in.Close()
	res, err := in.Analyze(core.DefaultConfig(), true)
	if err != nil {
		return nil, dynamicError(err)
	}
	rep := report.BuildExport("", source, in.Streamed, res.Analysis)
	rep.Hazards = res.Hazards
	return rep, nil
}

// dynamicError words an input failure the way clalint reports it.
func dynamicError(err error) error {
	var ie *input.Error
	if !errors.As(err, &ie) {
		return err
	}
	verb := map[input.Stage]string{
		input.StageOpen:    "open segment directory",
		input.StageDecode:  "read",
		input.StageAnalyze: "analyze",
		input.StageHazard:  "hazard analysis of",
	}[ie.Stage]
	return fmt.Errorf("%s %s: %w", verb, ie.Name, ie.Err)
}

// LoadPackages expands opts.Patterns, parses and best-effort
// type-checks every matched file, and returns the result grouped into
// directory packages. It is the loader behind Run, exported so the
// instrumenter resolves names with exactly the linter's semantics.
func LoadPackages(opts Options) ([]*Package, error) {
	pkgs, err := load(opts)
	if err != nil {
		return nil, err
	}
	out := make([]*Package, 0, len(pkgs))
	for _, p := range pkgs {
		ep := &Package{Name: p.name, Dir: p.dir, Fset: p.fset, Info: p.info, Types: p.tpkg}
		for _, f := range p.files {
			ep.Files = append(ep.Files, &File{
				Path: f.path, AST: f.ast, SyncName: f.syncName, TimeName: f.timeName,
			})
		}
		out = append(out, ep)
	}
	return out, nil
}

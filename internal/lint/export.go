package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"

	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/report"
	"critlock/internal/segment"
	"critlock/internal/trace"
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
// Traces and segment directories always yield a freshly computed
// hazards section, so `clalint -dynamic` on either joins both the
// criticality ranking and the dynamic hazard findings.
func LoadDynamic(path string) (*report.Export, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		rdr, err := segment.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open segment directory %s: %w", path, err)
		}
		defer rdr.Close()
		an, err := core.AnalyzeSource(core.StreamSource(rdr), core.Config{Options: core.DefaultOptions()})
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", path, err)
		}
		hz, err := hazard.FromSegments(rdr, 0)
		if err != nil {
			return nil, fmt.Errorf("hazard analysis of %s: %w", path, err)
		}
		rep := report.BuildExport("", "segments:"+path, true, an)
		rep.Hazards = hz
		return rep, nil
	}

	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// An analysis report is a JSON object with a "summary" key; divert
	// it before decoding the file as a binary or JSON trace.
	var probe map[string]json.RawMessage
	if json.Unmarshal(data, &probe) == nil {
		if _, ok := probe["summary"]; ok {
			return LoadReport(path)
		}
	}
	tr, err := trace.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	an, err := core.AnalyzeSource(core.TraceSource(tr), core.Config{Options: core.DefaultOptions()})
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", path, err)
	}
	hz, err := hazard.FromTrace(tr)
	if err != nil {
		return nil, fmt.Errorf("hazard analysis of %s: %w", path, err)
	}
	rep := report.BuildExport("", path, false, an)
	rep.Hazards = hz
	return rep, nil
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

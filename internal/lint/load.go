package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// fileInfo is one parsed source file.
type fileInfo struct {
	// path is the display path (slash-separated, relative to the
	// linting root when possible).
	path string
	ast  *ast.File
	// syncName / timeName / clrtName are the local import names of
	// "sync", "time" and "critlock/clrt" in this file ("" when not
	// imported). clrtName gates the traced-runtime API classification:
	// instrumented code (clainstr output) uses clrt.Mutex, clrt.Chan,
	// clrt.WaitGroup, clrt.Select in place of the sync/chan forms.
	syncName string
	timeName string
	clrtName string
}

// pkgInfo groups the files of one directory-package.
type pkgInfo struct {
	name  string
	dir   string // display dir, used to qualify global lock keys
	fset  *token.FileSet
	files []*fileInfo
	// info carries best-effort type information; lookups must
	// tolerate missing entries (imports outside stdlib resolve to
	// empty stubs).
	info *types.Info
	// dynNames maps canonical lock keys to dynamic lock names learned
	// from NewMutex("name") calls.
	dynNames map[string]string
	// condMutex maps canonical cond keys to the canonical key of the
	// mutex they guard, learned from sync.NewCond(&mu) and harness
	// p.Wait(c, m) pairings.
	condMutex map[string]string
	// tpkg is the (partial) checked package object; objects in info
	// with Pkg() == tpkg are declared in this package.
	tpkg *types.Package
}

// load expands patterns, parses every matched file and groups them
// into packages.
func load(opts Options) ([]*pkgInfo, error) {
	base := opts.Dir
	if base == "" {
		base = "."
	}
	dirFiles := map[string][]string{}
	for _, pat := range opts.Patterns {
		if err := expandPattern(base, pat, opts.IncludeTests, dirFiles); err != nil {
			return nil, err
		}
	}
	var dirs []string
	for d := range dirFiles {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	shared := newStubImporter(opts.StdlibTypes)
	var pkgs []*pkgInfo
	for _, dir := range dirs {
		files := dirFiles[dir]
		sort.Strings(files)
		byName := map[string]*pkgInfo{}
		var order []string
		fset := token.NewFileSet()
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil || f.Name == nil {
				// Unparseable files are skipped, not fatal: a linter
				// must degrade gracefully over hostile input.
				continue
			}
			name := f.Name.Name
			p := byName[name]
			if p == nil {
				p = &pkgInfo{name: name, dir: displayPath(base, dir), fset: fset}
				byName[name] = p
				order = append(order, name)
			}
			p.files = append(p.files, &fileInfo{path: displayPath(base, path), ast: f})
		}
		for _, name := range order {
			p := byName[name]
			p.typeCheck(shared)
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no Go files matched %v", opts.Patterns)
	}
	return pkgs, nil
}

// loadSource wraps one in-memory file as a package (fuzzing entry).
func loadSource(filename string, src []byte) (*pkgInfo, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	if f.Name == nil {
		return nil, fmt.Errorf("%s: no package clause", filename)
	}
	p := &pkgInfo{name: f.Name.Name, dir: ".", fset: fset}
	p.files = []*fileInfo{{path: filename, ast: f}}
	p.typeCheck(newStubImporter(false))
	return p, nil
}

// expandPattern resolves one pattern into dir -> files. Patterns are
// a file path, a directory, or "dir/..." which walks recursively,
// pruning testdata, vendor, "_*" and ".*" directories strictly below
// the root (so `clalint ./internal/lint/testdata/...` does lint the
// corpus while `clalint ./...` skips it).
func expandPattern(base, pat string, includeTests bool, out map[string][]string) error {
	recursive := false
	if strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(pat, "/...")
	} else if pat == "..." {
		recursive = true
		pat = "."
	}
	root := pat
	if !filepath.IsAbs(root) {
		root = filepath.Join(base, root)
	}
	st, err := os.Stat(root)
	if err != nil {
		return fmt.Errorf("pattern %q: %w", pat, err)
	}
	addFile := func(path string) {
		if !strings.HasSuffix(path, ".go") {
			return
		}
		if !includeTests && strings.HasSuffix(path, "_test.go") {
			return
		}
		dir := filepath.Dir(path)
		out[dir] = append(out[dir], path)
	}
	if !st.IsDir() {
		if !strings.HasSuffix(root, ".go") {
			return fmt.Errorf("pattern %q: not a directory or .go file", pat)
		}
		out[filepath.Dir(root)] = append(out[filepath.Dir(root)], root)
		return nil
	}
	if !recursive {
		ents, err := os.ReadDir(root)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() {
				addFile(filepath.Join(root, e.Name()))
			}
		}
		return nil
	}
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		addFile(path)
		return nil
	})
}

// displayPath renders path relative to base with forward slashes.
func displayPath(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// typeCheck runs go/types in maximum-tolerance mode: every error is
// collected and discarded, unresolvable imports become empty stub
// packages, and the resulting (partial) types.Info is only ever used
// as a hint.
func (p *pkgInfo) typeCheck(imp types.Importer) {
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:         imp,
		Error:            func(error) {}, // best effort: never fail
		IgnoreFuncBodies: false,
		FakeImportC:      true,
	}
	var files []*ast.File
	for _, f := range p.files {
		files = append(files, f.ast)
		f.syncName = ImportName(f.ast, "sync")
		f.timeName = ImportName(f.ast, "time")
		f.clrtName = ImportName(f.ast, "critlock/clrt")
	}
	// Check can in principle panic on pathological trees; a linter
	// must never crash on its input, so treat type info as optional.
	defer func() { _ = recover() }()
	p.tpkg, _ = conf.Check(p.name, p.fset, files, p.info)
}

// ImportName returns the local name under which file imports path, or
// "" when it does not (or imports it as _ or .).
func ImportName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if imp.Path == nil {
			continue
		}
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}

// stubImporter resolves stdlib packages from source when enabled and
// hands every other import an empty stub so type-checking proceeds.
type stubImporter struct {
	std   types.Importer
	stubs map[string]*types.Package
}

func newStubImporter(stdlib bool) *stubImporter {
	si := &stubImporter{stubs: map[string]*types.Package{}}
	if stdlib {
		si.std = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	return si
}

func (si *stubImporter) Import(path string) (pkg *types.Package, err error) {
	if si.std != nil && isStdlibPath(path) {
		// The source importer can error or panic on odd GOROOTs;
		// fall back to a stub rather than aborting the lint.
		func() {
			defer func() { _ = recover() }()
			pkg, err = si.std.Import(path)
		}()
		if pkg != nil && err == nil {
			return pkg, nil
		}
	}
	if p, ok := si.stubs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	si.stubs[path] = p
	return p, nil
}

// isStdlibPath guesses: stdlib import paths have no dot in their
// first element and are not module-internal ("critlock/...", any
// path with a domain).
func isStdlibPath(path string) bool {
	first := path
	if i := strings.Index(path, "/"); i >= 0 {
		first = path[:i]
	}
	if strings.Contains(first, ".") {
		return false
	}
	// Only resolve the packages the passes actually consult; pulling
	// in arbitrary stdlib source is wasted work.
	switch first {
	case "sync", "time", "os", "context", "runtime":
		return true
	}
	return false
}

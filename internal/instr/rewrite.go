package instr

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"go/types"
	"path"
	"strconv"
	"strings"

	"critlock/internal/lint"
)

// fileRewriter rewrites one file. All rewrites funnel through
// stmtList/stmt/expr so every construct is visited exactly once.
type fileRewriter struct {
	ins  *instrumenter
	pkg  *lintPackage
	file *lintFile

	clrt     string // import alias chosen for critlock/clrt
	needClrt bool
	changed  bool

	syncName, osName, logName, timeName string

	tmp      int
	fn       string // innermost named function, for lock auto-names
	pkgLocks []string
}

// rewriteFile rewrites f in place and renders it; (nil, false, nil)
// means the file needs no changes and should be copied verbatim.
func (ins *instrumenter) rewriteFile(p *lintPackage, f *lintFile) ([]byte, bool, error) {
	rw := &fileRewriter{
		ins: ins, pkg: p, file: f,
		syncName: f.SyncName,
		timeName: f.TimeName,
		osName:   lint.ImportName(f.AST, "os"),
		logName:  lint.ImportName(f.AST, "log"),
		clrt:     chooseClrtAlias(f.AST),
	}
	for _, d := range f.AST.Decls {
		rw.decl(d)
	}
	if len(rw.pkgLocks) > 0 {
		rw.appendSetNameInit()
	}
	if !rw.changed {
		return nil, false, nil
	}
	rw.fixImports()
	var buf bytes.Buffer
	if err := format.Node(&buf, p.Fset, f.AST); err != nil {
		return nil, false, fmt.Errorf("rendering: %w", err)
	}
	return buf.Bytes(), true, nil
}

// chooseClrtAlias picks an import name for critlock/clrt that no
// identifier in the file collides with.
func chooseClrtAlias(f *ast.File) string {
	used := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	if !used["clrt"] {
		return "clrt"
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("clrt%d", i)
		if !used[name] {
			return name
		}
	}
}

func (rw *fileRewriter) clrtSel(name string) ast.Expr {
	rw.needClrt = true
	rw.changed = true
	return sel(ident(rw.clrt), name)
}

func (rw *fileRewriter) temp(label string) string {
	rw.tmp++
	return fmt.Sprintf("clrt%s%d", label, rw.tmp)
}

// posOf formats a node's position as "file.go:NN" for generated names.
func (rw *fileRewriter) posOf(n ast.Node) string {
	p := rw.pkg.Fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", path.Base(rw.file.Path), p.Line)
}

func (rw *fileRewriter) lineOf(n ast.Node) int {
	return rw.pkg.Fset.Position(n.Pos()).Line
}

func (rw *fileRewriter) report(n ast.Node, construct, reason string) {
	rw.ins.report(rw.file.Path, rw.lineOf(n), construct, reason)
}

// ---- declarations ----

func (rw *fileRewriter) decl(d ast.Decl) {
	switch v := d.(type) {
	case *ast.FuncDecl:
		prev := rw.fn
		rw.fn = v.Name.Name
		rw.funcType(v.Type)
		if v.Body != nil {
			v.Body.List = rw.stmtList(v.Body.List)
			if rw.file.AST.Name.Name == "main" && v.Recv == nil && v.Name.Name == "main" {
				rw.wrapMain(v)
			}
		}
		rw.fn = prev
	case *ast.GenDecl:
		for _, spec := range v.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				rw.collectPkgLocks(s)
				if s.Type != nil {
					s.Type = rw.expr(s.Type)
				}
				for i := range s.Values {
					s.Values[i] = rw.expr(s.Values[i])
				}
			case *ast.TypeSpec:
				rw.typeSpec(s)
			}
		}
	}
}

// typeSpec rewrites the type of a type declaration. Defining a type
// directly off sync.Mutex would drop the method set after rewriting
// (defined types do not inherit methods), so those are skipped and
// reported instead.
func (rw *fileRewriter) typeSpec(s *ast.TypeSpec) {
	if s.Assign == token.NoPos { // not an alias
		if kind := rw.syncKind(s.Type); kind != "" {
			rw.report(s, "named-sync-type",
				fmt.Sprintf("type %s sync.%s defines a new type without sync.%s's methods after rewriting; left on raw sync (untraced)", s.Name.Name, kind, kind))
			return
		}
	}
	s.Type = rw.expr(s.Type)
}

// syncKind returns "Mutex", "RWMutex" or "WaitGroup" when e is a
// direct reference to that sync type, else "".
func (rw *fileRewriter) syncKind(e ast.Expr) string {
	se, ok := unparen(e).(*ast.SelectorExpr)
	if !ok || rw.syncName == "" {
		return ""
	}
	x, ok := se.X.(*ast.Ident)
	if !ok || x.Name != rw.syncName {
		return ""
	}
	if obj := objOf(rw.pkg, x); obj != nil {
		if _, isPkg := obj.(*types.PkgName); !isPkg {
			return "" // locally shadowed
		}
	}
	switch se.Sel.Name {
	case "Mutex", "RWMutex", "WaitGroup":
		return se.Sel.Name
	}
	return ""
}

// collectPkgLocks records top-level lock declarations for the
// generated init() that names them in analysis tables.
func (rw *fileRewriter) collectPkgLocks(s *ast.ValueSpec) {
	kind := ""
	if s.Type != nil {
		kind = rw.syncKind(s.Type)
	} else if len(s.Values) == len(s.Names) {
		// var mu = sync.Mutex{} style
		for _, v := range s.Values {
			if cl, ok := unparen(v).(*ast.CompositeLit); ok {
				kind = rw.syncKind(cl.Type)
			}
		}
	}
	if kind == "" {
		return
	}
	for _, n := range s.Names {
		if n.Name != "_" {
			rw.pkgLocks = append(rw.pkgLocks, n.Name)
		}
	}
}

// appendSetNameInit appends `func init() { mu.SetName("pkg.mu"); … }`
// so package-level locks report under their declared names.
func (rw *fileRewriter) appendSetNameInit() {
	var body []ast.Stmt
	for _, name := range rw.pkgLocks {
		body = append(body, exprStmt(call(
			sel(ident(name), "SetName"),
			strLit(rw.file.AST.Name.Name+"."+name),
		)))
	}
	rw.file.AST.Decls = append(rw.file.AST.Decls, &ast.FuncDecl{
		Name: ident("init"),
		Type: &ast.FuncType{Params: &ast.FieldList{}},
		Body: &ast.BlockStmt{List: body},
	})
	rw.changed = true
}

// wrapMain turns func main's body into clrt.Main(func() { … }) so the
// trace is flushed when the program exits.
func (rw *fileRewriter) wrapMain(fd *ast.FuncDecl) {
	inner := &ast.FuncLit{
		Type: &ast.FuncType{Params: &ast.FieldList{}},
		Body: &ast.BlockStmt{List: fd.Body.List},
	}
	fd.Body = &ast.BlockStmt{
		List: []ast.Stmt{exprStmt(call(rw.clrtSel("Main"), inner))},
	}
}

func (rw *fileRewriter) funcType(ft *ast.FuncType) {
	rw.fieldList(ft.TypeParams)
	rw.fieldList(ft.Params)
	rw.fieldList(ft.Results)
}

func (rw *fileRewriter) fieldList(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		if f.Type != nil {
			f.Type = rw.expr(f.Type)
		}
	}
}

// ---- statements ----

// stmtList rewrites a statement slice; individual statements may
// expand to several (temporaries are spliced in, not wrapped in
// blocks, so labeled statements keep working).
func (rw *fileRewriter) stmtList(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range list {
		out = append(out, rw.stmt(s)...)
	}
	return out
}

// stmt rewrites one statement into its replacement sequence. By
// convention the original statement's role is taken by the LAST
// element, so labels can re-attach to it.
func (rw *fileRewriter) stmt(s ast.Stmt) []ast.Stmt {
	switch v := s.(type) {
	case *ast.GoStmt:
		return rw.goStmt(v)
	case *ast.SelectStmt:
		return rw.selectStmt(v)
	case *ast.RangeStmt:
		return rw.rangeStmt(v)
	case *ast.SendStmt:
		return rw.sendStmt(v)
	case *ast.LabeledStmt:
		inner := rw.stmt(v.Stmt)
		v.Stmt = inner[len(inner)-1]
		return append(inner[:len(inner)-1:len(inner)-1], v)
	case *ast.DeclStmt:
		return rw.declStmt(v)
	case *ast.ExprStmt:
		v.X = rw.expr(v.X)
		return []ast.Stmt{v}
	case *ast.IncDecStmt:
		v.X = rw.expr(v.X)
		return []ast.Stmt{v}
	case *ast.AssignStmt:
		return rw.assignStmt(v)
	case *ast.DeferStmt:
		v.Call = rw.expr(v.Call).(*ast.CallExpr)
		return []ast.Stmt{v}
	case *ast.ReturnStmt:
		for i := range v.Results {
			v.Results[i] = rw.expr(v.Results[i])
		}
		return []ast.Stmt{v}
	case *ast.BlockStmt:
		v.List = rw.stmtList(v.List)
		return []ast.Stmt{v}
	case *ast.IfStmt:
		rw.simpleStmt(&v.Init)
		v.Cond = rw.expr(v.Cond)
		v.Body.List = rw.stmtList(v.Body.List)
		if v.Else != nil {
			el := rw.stmt(v.Else)
			v.Else = el[len(el)-1] // else is always a block or if: 1:1
		}
		return []ast.Stmt{v}
	case *ast.SwitchStmt:
		rw.simpleStmt(&v.Init)
		if v.Tag != nil {
			v.Tag = rw.expr(v.Tag)
		}
		v.Body.List = rw.stmtList(v.Body.List)
		return []ast.Stmt{v}
	case *ast.TypeSwitchStmt:
		rw.simpleStmt(&v.Init)
		rw.simpleStmt(&v.Assign)
		v.Body.List = rw.stmtList(v.Body.List)
		return []ast.Stmt{v}
	case *ast.CaseClause:
		for i := range v.List {
			v.List[i] = rw.expr(v.List[i])
		}
		v.Body = rw.stmtList(v.Body)
		return []ast.Stmt{v}
	case *ast.CommClause: // reached only inside un-rewritten selects
		if v.Comm != nil {
			rw.simpleStmt(&v.Comm)
		}
		v.Body = rw.stmtList(v.Body)
		return []ast.Stmt{v}
	case *ast.ForStmt:
		rw.simpleStmt(&v.Init)
		if v.Cond != nil {
			v.Cond = rw.expr(v.Cond)
		}
		rw.simpleStmt(&v.Post)
		v.Body.List = rw.stmtList(v.Body.List)
		return []ast.Stmt{v}
	default:
		return []ast.Stmt{s}
	}
}

// simpleStmt rewrites a grammar slot that holds at most one simple
// statement (if/for/switch init, comm clauses). The rewrites that
// expand cannot appear there.
func (rw *fileRewriter) simpleStmt(sp *ast.Stmt) {
	if *sp == nil {
		return
	}
	out := rw.stmt(*sp)
	*sp = out[len(out)-1]
}

// declStmt rewrites a local declaration and injects SetName calls
// after local lock declarations.
func (rw *fileRewriter) declStmt(v *ast.DeclStmt) []ast.Stmt {
	gd, ok := v.Decl.(*ast.GenDecl)
	if !ok {
		return []ast.Stmt{v}
	}
	var named []string
	for _, spec := range gd.Specs {
		switch s := spec.(type) {
		case *ast.ValueSpec:
			if kind := ""; s.Type != nil {
				kind = rw.syncKind(s.Type)
				if kind != "" && len(s.Values) == 0 {
					for _, n := range s.Names {
						if n.Name != "_" {
							named = append(named, n.Name)
						}
					}
				}
			}
			if s.Type != nil {
				s.Type = rw.expr(s.Type)
			}
			for i := range s.Values {
				s.Values[i] = rw.expr(s.Values[i])
			}
		case *ast.TypeSpec:
			rw.typeSpec(s)
		}
	}
	out := []ast.Stmt{v}
	for _, name := range named {
		out = append(out, exprStmt(call(
			sel(ident(name), "SetName"),
			strLit(rw.file.AST.Name.Name+"."+rw.fn+"."+name),
		)))
		rw.changed = true
	}
	if len(out) > 1 {
		// Keep the declaration last-stmt convention irrelevant here
		// (declarations take no labels in practice), but preserve
		// ordering: decl first, then SetName calls.
		return out
	}
	return out
}

// goStmt rewrites `go f(args)` into eager bindings plus clrt.Go. The
// function expression and every non-constant argument are evaluated
// at the statement, exactly as the go statement would.
func (rw *fileRewriter) goStmt(g *ast.GoStmt) []ast.Stmt {
	name := goroutineName(g.Call) + "@" + rw.posOf(g)

	// Record constness from the original expressions before rewriting.
	constArg := make([]bool, len(g.Call.Args))
	for i, a := range g.Call.Args {
		constArg[i] = isConstExpr(rw.pkg, a)
	}
	callee := rw.expr(g.Call.Fun)
	args := make([]ast.Expr, len(g.Call.Args))
	for i, a := range g.Call.Args {
		args[i] = rw.expr(a)
	}

	// go func(){ … }() with no arguments: pass the literal directly.
	if lit, ok := callee.(*ast.FuncLit); ok && len(args) == 0 {
		return []ast.Stmt{exprStmt(call(rw.clrtSel("Go"), strLit(name), lit))}
	}

	var binds []ast.Stmt
	var fun ast.Expr
	if id, ok := unparen(callee).(*ast.Ident); ok && isBuiltin(rw.pkg, id, id.Name) && universeBuiltin(id.Name) {
		fun = callee // builtins cannot be bound to a variable
	} else {
		fname := rw.temp("F")
		binds = append(binds, define(fname, callee))
		fun = ident(fname)
	}
	inner := make([]ast.Expr, len(args))
	for i, a := range args {
		if constArg[i] {
			inner[i] = a
			continue
		}
		aname := rw.temp("A")
		binds = append(binds, define(aname, a))
		inner[i] = ident(aname)
	}
	innerCall := &ast.CallExpr{Fun: fun, Args: inner}
	if g.Call.Ellipsis != token.NoPos {
		innerCall.Ellipsis = 1 // any non-NoPos position renders "..."
	}
	body := &ast.FuncLit{
		Type: &ast.FuncType{Params: &ast.FieldList{}},
		Body: &ast.BlockStmt{List: []ast.Stmt{exprStmt(innerCall)}},
	}
	return append(binds, exprStmt(call(rw.clrtSel("Go"), strLit(name), body)))
}

func universeBuiltin(name string) bool {
	switch name {
	case "append", "cap", "close", "complex", "copy", "delete", "imag",
		"len", "make", "new", "panic", "print", "println", "real", "recover",
		"min", "max", "clear":
		return true
	}
	return false
}

// goroutineName derives a display name for a spawned thread from the
// call it runs.
func goroutineName(c *ast.CallExpr) string {
	switch f := unparen(c.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	default:
		return "func"
	}
}

// ---- expressions ----

func (rw *fileRewriter) exprList(list []ast.Expr) {
	for i := range list {
		list[i] = rw.expr(list[i])
	}
}

// expr rewrites an expression tree, returning the replacement.
func (rw *fileRewriter) expr(e ast.Expr) ast.Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *ast.Ident, *ast.BasicLit, *ast.BadExpr:
		return e

	case *ast.SelectorExpr:
		if kind := rw.syncKind(v); kind != "" {
			return rw.clrtSel(kind)
		}
		if rw.syncName != "" {
			if x, ok := v.X.(*ast.Ident); ok && x.Name == rw.syncName &&
				(v.Sel.Name == "Cond" || v.Sel.Name == "NewCond") {
				rw.report(v, "sync.Cond",
					"sync.Cond has no traced counterpart; if it guards a rewritten mutex the copy will not compile — keep that mutex out of the instrumented patterns")
			}
		}
		v.X = rw.expr(v.X)
		return v

	case *ast.CallExpr:
		return rw.callExpr(v)

	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			return rw.recvExpr(v)
		}
		v.X = rw.expr(v.X)
		return v

	case *ast.BinaryExpr:
		if r := rw.nilCompare(v); r != nil {
			return r
		}
		v.X = rw.expr(v.X)
		v.Y = rw.expr(v.Y)
		return v

	case *ast.ParenExpr:
		v.X = rw.expr(v.X)
		return v
	case *ast.StarExpr:
		v.X = rw.expr(v.X)
		return v
	case *ast.IndexExpr:
		v.X = rw.expr(v.X)
		v.Index = rw.expr(v.Index)
		return v
	case *ast.IndexListExpr:
		v.X = rw.expr(v.X)
		rw.exprList(v.Indices)
		return v
	case *ast.SliceExpr:
		v.X = rw.expr(v.X)
		v.Low = rw.expr(v.Low)
		v.High = rw.expr(v.High)
		v.Max = rw.expr(v.Max)
		return v
	case *ast.TypeAssertExpr:
		v.X = rw.expr(v.X)
		if v.Type != nil {
			v.Type = rw.expr(v.Type)
		}
		return v
	case *ast.KeyValueExpr:
		v.Key = rw.expr(v.Key)
		v.Value = rw.expr(v.Value)
		return v
	case *ast.CompositeLit:
		if v.Type != nil {
			v.Type = rw.expr(v.Type)
		}
		rw.exprList(v.Elts)
		return v
	case *ast.FuncLit:
		prev := rw.fn
		if rw.fn == "" {
			rw.fn = "func"
		}
		rw.funcType(v.Type)
		v.Body.List = rw.stmtList(v.Body.List)
		rw.fn = prev
		return v
	case *ast.Ellipsis:
		if v.Elt != nil {
			v.Elt = rw.expr(v.Elt)
		}
		return v

	// Type expressions.
	case *ast.ChanType:
		if rw.ins.chansOn {
			elem := rw.expr(v.Value)
			rw.changed = true
			return &ast.IndexExpr{X: rw.clrtSel("Chan"), Index: elem}
		}
		v.Value = rw.expr(v.Value)
		return v
	case *ast.ArrayType:
		if v.Len != nil {
			v.Len = rw.expr(v.Len)
		}
		v.Elt = rw.expr(v.Elt)
		return v
	case *ast.MapType:
		v.Key = rw.expr(v.Key)
		v.Value = rw.expr(v.Value)
		return v
	case *ast.StructType:
		rw.fieldList(v.Fields)
		return v
	case *ast.InterfaceType:
		rw.fieldList(v.Methods)
		return v
	case *ast.FuncType:
		rw.funcType(v)
		return v
	default:
		return e
	}
}

// callExpr handles the call-shaped rewrites: os.Exit, time.After,
// make(chan …), close/len/cap on instrumented channels, log.Fatal
// findings; everything else just recurses.
func (rw *fileRewriter) callExpr(c *ast.CallExpr) ast.Expr {
	// os.Exit → clrt.Exit (flushes the trace before exiting).
	if se, ok := unparen(c.Fun).(*ast.SelectorExpr); ok {
		if x, ok := se.X.(*ast.Ident); ok {
			if rw.osName != "" && x.Name == rw.osName && se.Sel.Name == "Exit" && rw.isPkgRef(x) {
				c.Fun = rw.clrtSel("Exit")
				rw.exprList(c.Args)
				return c
			}
			if rw.logName != "" && x.Name == rw.logName && rw.isPkgRef(x) {
				switch se.Sel.Name {
				case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
					rw.report(c, "log."+se.Sel.Name,
						"exits/panics through the log package without flushing the trace; on this path the recording is lost")
				}
			}
			if rw.ins.chansOn && rw.timeName != "" && x.Name == rw.timeName && se.Sel.Name == "After" && rw.isPkgRef(x) {
				c.Fun = rw.clrtSel("After")
				rw.exprList(c.Args)
				return c
			}
		}
	}
	// make(chan T, n) → clrt.MakeChan[T](name, n)
	if rw.ins.chansOn && isBuiltin(rw.pkg, c.Fun, "make") && len(c.Args) >= 1 {
		if ct, ok := unparen(c.Args[0]).(*ast.ChanType); ok {
			elem := rw.expr(ct.Value)
			capacity := ast.Expr(intLit(0))
			if len(c.Args) >= 2 {
				capacity = rw.expr(c.Args[1])
			}
			name := "chan@" + rw.posOf(c)
			return call(
				&ast.IndexExpr{X: rw.clrtSel("MakeChan"), Index: elem},
				strLit(name), capacity,
			)
		}
	}
	// close/len/cap on instrumented channels become method calls.
	if len(c.Args) == 1 {
		for _, b := range [...]struct{ builtin, method string }{
			{"close", "Close"}, {"len", "Len"}, {"cap", "Cap"},
		} {
			if isBuiltin(rw.pkg, c.Fun, b.builtin) && rw.chanClass(c.Args[0]) == clInstr {
				arg := rw.expr(c.Args[0])
				rw.changed = true
				return call(sel(arg, b.method))
			}
		}
	}
	c.Fun = rw.expr(c.Fun)
	rw.exprList(c.Args)
	return c
}

// isPkgRef reports whether the identifier (syntactically an import
// name) is not shadowed by a local declaration.
func (rw *fileRewriter) isPkgRef(x *ast.Ident) bool {
	if obj := objOf(rw.pkg, x); obj != nil {
		_, isPkg := obj.(*types.PkgName)
		return isPkg
	}
	return true
}

// ---- imports ----

// fixImports adds the clrt import and drops imports the rewrite
// orphaned (sync/os/time with no remaining references).
func (rw *fileRewriter) fixImports() {
	f := rw.file.AST
	for _, name := range [...]string{rw.syncName, rw.osName, rw.timeName} {
		if name != "" && !rw.selectorRemains(name) {
			removeImport(f, map[string]string{
				rw.syncName: "sync", rw.osName: "os", rw.timeName: "time",
			}[name])
		}
	}
	if rw.needClrt {
		addImport(f, rw.clrt, "critlock/clrt")
	}
}

// selectorRemains reports whether any `name.X` reference survives in
// the rewritten file.
func (rw *fileRewriter) selectorRemains(name string) bool {
	found := false
	ast.Inspect(rw.file.AST, func(n ast.Node) bool {
		if se, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := se.X.(*ast.Ident); ok && x.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

func addImport(f *ast.File, alias, path string) {
	spec := &ast.ImportSpec{Path: strLit(path)}
	if alias != "" && alias != path[strings.LastIndex(path, "/")+1:] {
		spec.Name = ident(alias)
	}
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
			gd.Specs = append(gd.Specs, spec)
			if gd.Lparen == token.NoPos && len(gd.Specs) > 1 {
				gd.Lparen = gd.TokPos // force parenthesized form
			}
			f.Imports = append(f.Imports, spec)
			return
		}
	}
	gd := &ast.GenDecl{Tok: token.IMPORT, Specs: []ast.Spec{spec}}
	f.Decls = append([]ast.Decl{gd}, f.Decls...)
	f.Imports = append(f.Imports, spec)
}

func removeImport(f *ast.File, path string) {
	quoted := strconv.Quote(path)
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		for i, s := range gd.Specs {
			if is, ok := s.(*ast.ImportSpec); ok && is.Path != nil && is.Path.Value == quoted {
				if is.Name != nil && (is.Name.Name == "_" || is.Name.Name == ".") {
					return // blank/dot imports are load-bearing; keep
				}
				gd.Specs = append(gd.Specs[:i], gd.Specs[i+1:]...)
				for j, imp := range f.Imports {
					if imp == is {
						f.Imports = append(f.Imports[:j], f.Imports[j+1:]...)
						break
					}
				}
				return
			}
		}
	}
}

package instr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"critlock/internal/lint"
)

// Small AST construction helpers. Generated nodes carry no positions;
// go/format renders them fine interleaved with positioned source.

func ident(name string) *ast.Ident { return &ast.Ident{Name: name} }

func sel(x ast.Expr, name string) *ast.SelectorExpr {
	return &ast.SelectorExpr{X: x, Sel: ident(name)}
}

func strLit(s string) *ast.BasicLit {
	return &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(s)}
}

func intLit(n int) *ast.BasicLit {
	return &ast.BasicLit{Kind: token.INT, Value: strconv.Itoa(n)}
}

func call(fun ast.Expr, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{Fun: fun, Args: args}
}

func exprStmt(e ast.Expr) *ast.ExprStmt { return &ast.ExprStmt{X: e} }

func assign(tok token.Token, lhs []ast.Expr, rhs []ast.Expr) *ast.AssignStmt {
	return &ast.AssignStmt{Lhs: lhs, Tok: tok, Rhs: rhs}
}

func define(name string, rhs ast.Expr) *ast.AssignStmt {
	return assign(token.DEFINE, []ast.Expr{ident(name)}, []ast.Expr{rhs})
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// objOf resolves an identifier to its object, using or definition.
func objOf(p *lint.Package, id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// pkgLocal reports whether obj is declared in p itself (as opposed to
// an import, a stub, or the universe scope).
func pkgLocal(p *lint.Package, obj types.Object) bool {
	return obj != nil && p.Types != nil && obj.Pkg() == p.Types
}

// typeOf returns the best-effort static type of e, nil when unknown.
func typeOf(p *lint.Package, e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	if tv, ok := p.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return nil
}

// isChanType reports whether t is directly a channel type.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// typeContainsChan reports whether t mentions a channel anywhere
// (elements of slices/arrays/maps, struct fields, pointers).
func typeContainsChan(t types.Type, depth int) bool {
	if t == nil || depth > 8 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Slice:
		return typeContainsChan(u.Elem(), depth+1)
	case *types.Array:
		return typeContainsChan(u.Elem(), depth+1)
	case *types.Pointer:
		return typeContainsChan(u.Elem(), depth+1)
	case *types.Map:
		return typeContainsChan(u.Key(), depth+1) || typeContainsChan(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeContainsChan(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// astContainsChan reports whether the spelled type expression mentions
// a chan anywhere.
func astContainsChan(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.ChanType); ok {
			found = true
		}
		return !found
	})
	return found
}

// isConstExpr reports whether e evaluated to a compile-time constant
// in the original program — such arguments are inlined rather than
// bound, so untyped constants keep their implicit conversions.
func isConstExpr(p *lint.Package, e ast.Expr) bool {
	switch unparen(e).(type) {
	case *ast.BasicLit:
		return true
	}
	if p.Info != nil {
		if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
			return true
		}
	}
	return false
}

// isBuiltin reports whether the call's callee resolves to (or, absent
// type info, is plausibly) the named builtin.
func isBuiltin(p *lint.Package, fun ast.Expr, name string) bool {
	id, ok := unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := objOf(p, id)
	if obj == nil {
		return true // unresolved: builtins usually are in partial info
	}
	_, isB := obj.(*types.Builtin)
	return isB
}

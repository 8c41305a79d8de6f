// Package callgraph provides a shared per-package call-graph artifact.
//
// The graph maps every function declared in the package's non-test files
// to its resolved call sites — including calls into other packages —
// in source order. The interprocedural analyzers (softfloat,
// determinism, hotalloc) all consume it: they walk edges within the
// package and consult imported facts at edges that leave it. Calls
// through non-constant function values (interface methods, stored
// closures) are unresolvable and absent; analyzers must treat their
// absence per their own soundness posture.
package callgraph

import (
	"go/ast"
	"go/types"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/inspect"
)

// Analyzer builds the package's Graph. Obtain it with
//
//	g := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)
var Analyzer = &analysis.Analyzer{
	Name:     "callgraph",
	Doc:      "build a shared resolved call graph for other analyzers",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// Graph is the package's functions and their resolved outgoing calls.
type Graph struct {
	// Decls maps each declared function to its node. Only functions with
	// declarations in this package's non-test files appear.
	Decls map[*types.Func]*Decl
	// List holds the same nodes in source order, for deterministic
	// iteration.
	List []*Decl
}

// Decl is one declared function and its outgoing calls.
type Decl struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	File *ast.File
	// Edges lists the resolved calls in the function's body (including
	// inside nested function literals), in source order.
	Edges []Edge
}

// Edge is one resolved call site.
type Edge struct {
	// Callee is the called function or method; it may belong to any
	// package.
	Callee *types.Func
	Site   *ast.CallExpr
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	g := &Graph{Decls: make(map[*types.Func]*Decl)}
	ins.WithStack([]ast.Node{(*ast.FuncDecl)(nil), (*ast.CallExpr)(nil)}, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if pass.InTestFile(n.Pos()) {
				return false
			}
			fn, _ := pass.TypesInfo.Defs[n.Name].(*types.Func)
			if fn == nil {
				return false
			}
			d := &Decl{Fn: fn, Decl: n, File: file}
			g.Decls[fn] = d
			g.List = append(g.List, d)
		case *ast.CallExpr:
			callee := analysis.CalleeFunc(pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			if d := g.enclosing(pass, stack); d != nil {
				d.Edges = append(d.Edges, Edge{Callee: callee, Site: n})
			}
		}
		return true
	})
	return g, nil
}

// enclosing finds the Decl of the innermost enclosing *ast.FuncDecl on
// the traversal stack (nil for package-level initializer expressions).
func (g *Graph) enclosing(pass *analysis.Pass, stack []ast.Node) *Decl {
	for i := len(stack) - 1; i >= 0; i-- {
		fd, ok := stack[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		return g.Decls[fn]
	}
	return nil
}

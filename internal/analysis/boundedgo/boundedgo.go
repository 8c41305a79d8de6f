// Package boundedgo forbids `go` statements outside internal/exec.
//
// PR 1 centralized all concurrency in the campaign execution engine: a
// single process-wide token pool bounds total parallelism, and the
// engine's constructs (ForEach and the Session campaign driver) are
// built so parallel results are bitwise-identical to sequential
// execution. A goroutine launched
// anywhere else escapes both guarantees — it is invisible to the worker
// bound (nested fan-out can multiply goroutines unboundedly) and its
// interleaving can order side effects nondeterministically. Packages
// wanting concurrency must express the work as exec scheduler jobs.
//
// Test files are exempt: tests drive the deterministic core from outside
// and legitimately race goroutines against it (e.g. the race-detector
// suites).
package boundedgo

import (
	"go/ast"
	"strings"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/inspect"
)

// Analyzer is the boundedgo invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "boundedgo",
	Doc:      "forbid go statements outside internal/exec; all concurrency runs under the bounded deterministic scheduler",
	Version:  2,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Path == "internal/exec" || strings.HasSuffix(pass.Path, "/internal/exec") {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	ins.WithStack([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		if pass.InTestFile(n.Pos()) {
			return false
		}
		g := n.(*ast.GoStmt)
		for _, anc := range stack {
			if pass.Allowed(file, anc) {
				return true
			}
		}
		pass.Reportf(g.Go, "go statement outside internal/exec escapes the bounded deterministic scheduler; use exec.ForEach or the exec.Session campaign driver")
		return true
	})
	return nil, nil
}

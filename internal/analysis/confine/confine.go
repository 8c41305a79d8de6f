// Package confine keeps four constructs inside the packages whose
// correctness argument covers them. Each row of the rules table names
// what is confined and where it is allowed:
//
//   - go statements → internal/exec. A single process-wide token pool
//     bounds total parallelism, and the engine's constructs (ForEach and
//     the Session campaign driver) are built so parallel results are
//     bitwise-identical to sequential execution. A goroutine launched
//     anywhere else is invisible to the worker bound and its
//     interleaving can order side effects nondeterministically.
//   - the builtin recover() → internal/exec. The behavioral DUE model
//     aborts a faulty execution by panicking from inside the injecting
//     fp.Env and relies on exactly one recovery point, exec.Guard, to
//     classify the abort. A recover() anywhere else would hand a
//     half-computed output to the campaign, which would score it as
//     Masked or SDC.
//   - internal/chaos → itself and cmd/mixedrelstress, the soak binary.
//     It is a checkpoint filesystem that fails on purpose; a production
//     campaign that could reach it would lose the crash tolerance the
//     journal exists to provide.
//   - internal/traceir → internal/exec, internal/inject and itself.
//     Serving recorded results in place of softfloat execution is only
//     exact under the injector's compare-serving discipline; any other
//     caller could replay recorded bits where its preconditions fail.
//
// For a package row an import counts as use, and so does a selector on
// a value of that package obtained through another package (calling
// art.Trace().ServeScalar(...) names no traceir identifier), so handing
// a value across a package boundary does not launder the dependency.
// Packages are matched on their module-relative path suffix. Test files
// are exempt, as everywhere in the suite: tests race goroutines against
// the core, recover to assert panics, and drive both layers from outside.
package confine

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/inspect"
)

// Analyzer is the confine invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "confine",
	Doc:      "confine go statements and recover() to internal/exec, internal/chaos to the soak harness, and internal/traceir to internal/exec and internal/inject",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// The construct rows' keys; neither can collide with an import path.
const (
	goStmt      = "go statement"
	recoverCall = "recover()"
)

// rule confines one construct or package to the packages in allowed.
type rule struct {
	// confined is goStmt, recoverCall, or the module-relative path of a
	// confined package.
	confined string
	allowed  []string
	// msg reports a go statement, a recover() call, or an import (with
	// the import path as its argument). sel reports a package row's
	// selection through a value (with the selected name).
	msg, sel string
}

var rules = []rule{
	{
		confined: goStmt,
		allowed:  []string{"internal/exec"},
		msg:      "go statement outside internal/exec escapes the bounded deterministic scheduler; use exec.ForEach or the exec.Session campaign driver",
	},
	{
		confined: recoverCall,
		allowed:  []string{"internal/exec"},
		msg:      "recover() outside internal/exec swallows emulated crash/hang aborts before exec.Guard can classify them as DUEs",
	},
	{
		confined: "internal/chaos",
		allowed:  []string{"internal/chaos", "cmd/mixedrelstress"},
		msg:      "import of %s outside the soak harness; the fault-injecting checkpoint FS must stay unreachable from production campaigns",
		sel:      "use of internal/chaos.%s through a value obtained from another package; fault injection must stay confined to the soak harness",
	},
	{
		confined: "internal/traceir",
		allowed:  []string{"internal/exec", "internal/inject", "internal/traceir"},
		msg:      "import of %s outside internal/exec and internal/inject; compiled-trace results are only exact under their compare-serving discipline",
		sel:      "use of internal/traceir.%s through a value obtained from another package; compiled-trace results are only exact under the exec/inject compare-serving discipline",
	},
}

func pathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

func run(pass *analysis.Pass) (interface{}, error) {
	// The rows that forbid something in this package.
	var active []*rule
	for i := range rules {
		r := &rules[i]
		allowed := false
		for _, a := range r.allowed {
			allowed = allowed || pathIs(pass.Path, a)
		}
		if !allowed {
			active = append(active, r)
		}
	}
	forbidden := func(key string) *rule {
		for _, r := range active {
			if pathIs(key, r.confined) {
				return r
			}
		}
		return nil
	}

	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, spec := range file.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if r := forbidden(path); r != nil && !pass.Allowed(file, spec) {
				pass.Reportf(spec.Pos(), r.msg, path)
			}
		}
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	nodes := []ast.Node{(*ast.GoStmt)(nil), (*ast.CallExpr)(nil), (*ast.SelectorExpr)(nil)}
	ins.WithStack(nodes, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		if pass.InTestFile(n.Pos()) {
			return false
		}
		var (
			key, name string
			pos       token.Pos
		)
		switch n := n.(type) {
		case *ast.GoStmt:
			key, pos = goStmt, n.Go
		case *ast.CallExpr:
			// Only the builtin counts; a local function or method named
			// "recover" cannot swallow a panic.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "recover" {
				if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					key, pos = recoverCall, n.Lparen
				}
			}
		case *ast.SelectorExpr:
			// A qualified identifier (pkg.Name) has no selection; it
			// needs an import, which the import check covers.
			if obj := pass.TypesInfo.Uses[n.Sel]; obj != nil && obj.Pkg() != nil && pass.TypesInfo.Selections[n] != nil {
				key, pos, name = obj.Pkg().Path(), n.Sel.Pos(), n.Sel.Name
			}
		}
		r := forbidden(key)
		if r == nil {
			return true
		}
		for _, anc := range stack {
			if pass.Allowed(file, anc) {
				return true
			}
		}
		msg := r.msg
		if name != "" {
			msg = fmt.Sprintf(r.sel, name)
		}
		pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
		return true
	})
	return nil, nil
}

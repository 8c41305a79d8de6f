// Package determinism forbids the three nondeterminism vectors that the
// campaign engine's bit-exactness guarantee cannot survive:
//
//  1. math/rand (v1 or v2): every stochastic draw must come from an
//     rng.Rand stream derived from the campaign seed, so a
//     campaign re-run with the same seed replays bit-identically and
//     parallel shards get decorrelated streams by construction;
//  2. wall-clock reads (time.Now, time.Since, time.Until): clock-derived
//     seeds or timings leak host state into results;
//  3. map iteration feeding rendered output: Go randomizes map iteration
//     order, so a `for k := range m` that prints, writes a builder, or
//     appends report.Table rows produces differently-ordered artifacts
//     run to run — exactly what the byte-identical-tables contract of
//     the execution engine forbids. Iterate a sorted key slice instead.
//
// The checks above are local to each package. On top of them the
// analyzer is interprocedural: every function that reads a
// nondeterminism source — directly or through any chain of calls,
// including allow-exempted ones — carries a NondetSource fact, and calls
// to fact-carrying functions are reported where nondeterminism cannot be
// tolerated at all: in functions reachable from a kernel's Run method,
// and anywhere in the report package (rendered artifacts must be
// byte-identical). An allow directive therefore exempts a wall-clock
// read locally (progress logging is fine in a CLI path) without hiding
// it from callers on the deterministic core's paths.
//
// Test files are exempt (benchmarks time things; tests may exercise
// disorder deliberately), as is any statement carrying
// //mixedrelvet:allow determinism <reason>.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/callgraph"
	"mixedrel/internal/analysis/inspect"
)

// NondetSource marks a function whose result or behavior depends on
// something other than its inputs and the campaign seed: it reads the
// wall clock or draws from math/rand, directly or transitively.
type NondetSource struct {
	// Why names the first source found: "reads time.Now", "draws from
	// math/rand", or "calls pkg.F" for transitive taint.
	Why string
}

func (*NondetSource) AFact() {}

func (f *NondetSource) String() string { return "nondetSource(" + f.Why + ")" }

// Analyzer is the determinism invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "determinism",
	Doc:      "forbid math/rand, wall-clock reads, and map-ordered rendered output in the deterministic simulator",
	Requires: []*analysis.Analyzer{inspect.Analyzer, callgraph.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	g := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)

	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		checkImports(pass, file)
	}
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil)}, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		if pass.InTestFile(n.Pos()) {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(pass.TypesInfo, e); fn != nil && wallClock(fn) {
				if !allowedOnStack(pass, file, stack) {
					pass.Reportf(e.Pos(), "wall-clock read time.%s in deterministic code; results must be a function of the seed alone", fn.Name())
				}
			}
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[e.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := findSink(pass, e.Body); sink != "" && !allowedOnStack(pass, file, stack) {
				pass.Reportf(e.For, "map iteration order is nondeterministic but this loop feeds rendered output (%s); iterate sorted keys", sink)
			}
		}
		return true
	})

	// Interprocedural taint: seed with direct sources, then propagate
	// through call edges to a fixed point. Allow directives do NOT block
	// the fact — an exemption is a claim about one context, not about
	// every caller — so exempted sources still taint their callers.
	tainted := make(map[*types.Func]string)
	imported := make(map[*types.Func]string)
	crossWhy := func(fn *types.Func) string {
		if why, ok := imported[fn]; ok {
			return why
		}
		var fact NondetSource
		why := ""
		if pass.ImportObjectFact(fn, &fact) {
			why = fact.Why
		}
		imported[fn] = why
		return why
	}
	for _, d := range g.List {
		for _, e := range d.Edges {
			if why := directSource(e.Callee); why != "" {
				tainted[d.Fn] = why
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range g.List {
			if _, done := tainted[d.Fn]; done {
				continue
			}
			for _, e := range d.Edges {
				why := ""
				if _, ok := tainted[e.Callee]; ok {
					why = "calls " + analysis.FuncShortName(e.Callee)
				} else if _, local := g.Decls[e.Callee]; !local && e.Callee.Pkg() != nil && e.Callee.Pkg() != pass.Pkg && directSource(e.Callee) == "" {
					if crossWhy(e.Callee) != "" {
						why = "calls " + e.Callee.Pkg().Name() + "." + analysis.FuncShortName(e.Callee)
					}
				}
				if why != "" {
					tainted[d.Fn] = why
					changed = true
					break
				}
			}
		}
	}
	for _, d := range g.List {
		if why, ok := tainted[d.Fn]; ok {
			pass.ExportObjectFact(d.Fn, &NondetSource{Why: why})
		}
	}

	// Enforcement: nondeterminism sources — however deeply wrapped — are
	// forbidden outright on a kernel's Run path (fault classification
	// compares against a golden run; any divergence is misscored) and in
	// the report package (artifacts are diffed byte-for-byte).
	enforce := func(d *callgraph.Decl, root *types.Func) {
		for _, e := range d.Edges {
			why := ""
			if w, ok := tainted[e.Callee]; ok {
				why = w
			} else if _, local := g.Decls[e.Callee]; !local && e.Callee.Pkg() != nil && e.Callee.Pkg() != pass.Pkg && directSource(e.Callee) == "" {
				why = crossWhy(e.Callee)
			}
			if why == "" || pass.Allowed(d.File, e.Site) {
				continue
			}
			callee := analysis.FuncShortName(e.Callee)
			if e.Callee.Pkg() != nil && e.Callee.Pkg() != pass.Pkg {
				callee = e.Callee.Pkg().Name() + "." + callee
			}
			if root != nil {
				pass.Reportf(e.Site.Pos(), "call to %s is a nondeterminism source (%s) on the Run path of %s; results must be a function of the seed alone",
					callee, why, analysis.FuncShortName(root))
			} else {
				pass.Reportf(e.Site.Pos(), "call to %s is a nondeterminism source (%s); results must be a function of the seed alone",
					callee, why)
			}
		}
	}
	switch pass.Pkg.Name() {
	case "kernels":
		seen := make(map[*types.Func]bool)
		for _, rd := range g.List {
			if rd.Fn.Name() != "Run" || rd.Decl.Recv == nil {
				continue
			}
			stack := []*types.Func{rd.Fn}
			for len(stack) > 0 {
				fn := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[fn] {
					continue
				}
				seen[fn] = true
				d, ok := g.Decls[fn]
				if !ok {
					continue
				}
				enforce(d, rd.Fn)
				for _, e := range d.Edges {
					if _, local := g.Decls[e.Callee]; local {
						stack = append(stack, e.Callee)
					}
				}
			}
		}
	case "report":
		for _, d := range g.List {
			enforce(d, nil)
		}
	}
	return nil, nil
}

// directSource classifies callees that are nondeterministic by
// definition.
func directSource(fn *types.Func) string {
	if wallClock(fn) {
		return "reads time." + fn.Name()
	}
	if p := fn.Pkg(); p != nil && (p.Path() == "math/rand" || p.Path() == "math/rand/v2") {
		return "draws from " + p.Path()
	}
	return ""
}

func checkImports(pass *analysis.Pass, file *ast.File) {
	for _, spec := range file.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			if !pass.Allowed(file, spec) {
				pass.Reportf(spec.Pos(), "import of %s in deterministic code; draw from a seeded rng.Rand stream instead", path)
			}
		}
	}
}

func wallClock(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

// findSink reports the first output-rendering operation in the loop
// body: a fmt print, a write into a strings.Builder or bytes.Buffer, or
// any use of the report package (method call or field assignment). These
// are the operations whose effect preserves iteration order.
func findSink(pass *analysis.Pass, body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(pass.TypesInfo, e)
			if fn == nil {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
				(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
				sink = "fmt." + fn.Name()
				return false
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				recv := sig.Recv().Type()
				if recvPkgName(recv) == "report" {
					sink = "report method " + fn.Name()
					return false
				}
				if analysis.IsPkgType(recv, "strings", "Builder") || analysis.IsPkgType(recv, "bytes", "Buffer") {
					named := analysis.Named(recv)
					sink = "write into " + named.Obj().Pkg().Name() + "." + named.Obj().Name()
					return false
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					if tv, ok := pass.TypesInfo.Types[sel.X]; ok && recvPkgName(tv.Type) == "report" {
						sink = "assignment to report field " + sel.Sel.Name
						return false
					}
				}
			}
		}
		return true
	})
	return sink
}

func recvPkgName(t types.Type) string {
	n := analysis.Named(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Name()
}

func allowedOnStack(pass *analysis.Pass, file *ast.File, stack []ast.Node) bool {
	for _, n := range stack {
		if pass.Allowed(file, n) {
			return true
		}
	}
	return false
}

// Package hotalloc proves that hot-path functions do not allocate.
//
// The injector's per-operation methods (inject.Env.Add/Mul/FMA, the
// batch kernels, the compiled-trace serve loop) execute millions to
// billions of times per campaign; a single allocation in one of them
// turns into GC pressure that dominates the run and — worse — makes
// throughput dependent on heap state rather than on the operation
// stream. The roots of the proof are declared in the source itself:
//
//	//mixedrelvet:hotpath <reason>
//
// on a function declaration marks it as a hot-path root. The analyzer
// walks everything a root (transitively) calls and reports every
// allocation site it can see: make, new, append, slice and map
// literals, literals taken by address (&T{...}), function literals
// (closures capture), and calls into fmt (which allocates for boxing
// and buffering). A struct or array value literal is no site of its
// own, but its elements are still checked. The facts are
// interprocedural: a Allocates fact is exported for every allocating
// function in every package, so a hot path calling a helper in another
// package is checked against that helper's fact rather than being
// trusted blindly.
//
// Two escapes keep the proof honest instead of noisy:
//
//   - allocations in the arguments of panic(...) are exempt — the DUE
//     model aborts by panicking with a payload, and an aborted sample
//     has already left the hot loop;
//   - //mixedrelvet:allow hotalloc <reason> on a statement or
//     declaration exempts amortized allocations (pool refills, one-time
//     growth) and blocks the fact, since the claim is that the
//     steady-state path does not allocate.
//
// Calls through interface values are invisible to the call graph, and
// the standard library (other than the fmt denylist) carries no facts;
// the proof covers first-party code called concretely.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/callgraph"
)

// Allocates marks a function that allocates, directly or through a
// callee, outside a panic payload or an allow-exempted site.
type Allocates struct {
	// Why names the first allocation found: "make", "new", "append",
	// "composite literal", "function literal", or "calls pkg.F".
	Why string
}

func (*Allocates) AFact() {}

func (f *Allocates) String() string { return "allocates(" + f.Why + ")" }

// Analyzer is the hotalloc invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "prove //mixedrelvet:hotpath functions and everything they call allocation-free",
	Requires: []*analysis.Analyzer{callgraph.Analyzer},
	Run:      run,
}

// allocSite is one visible allocation in a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)

	sites := make(map[*types.Func][]allocSite)
	inPanic := make(map[*ast.CallExpr]bool)
	for _, d := range g.List {
		sites[d.Fn] = collectSites(pass, d.File, d.Decl.Body, inPanic)
	}

	// Bottom-up taint, as in softfloat: local sites seed, call edges
	// propagate, an allow directive on the declaration blocks the fact.
	tainted := make(map[*types.Func]string)
	blocked := make(map[*types.Func]bool)
	imported := make(map[*types.Func]string)
	crossWhy := func(fn *types.Func) string {
		if why, ok := imported[fn]; ok {
			return why
		}
		why := ""
		if p := fn.Pkg(); p != nil && p.Path() == "fmt" {
			why = "formats and boxes arguments"
		} else {
			var fact Allocates
			if pass.ImportObjectFact(fn, &fact) {
				why = fact.Why
			}
		}
		imported[fn] = why
		return why
	}
	taintDecl := func(d *callgraph.Decl, why string) bool {
		if pass.Allowed(d.File, d.Decl) {
			blocked[d.Fn] = true
			return false
		}
		tainted[d.Fn] = why
		return true
	}
	for _, d := range g.List {
		if s := sites[d.Fn]; len(s) > 0 {
			taintDecl(d, s[0].what)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range g.List {
			if _, done := tainted[d.Fn]; done || blocked[d.Fn] {
				continue
			}
			for _, e := range d.Edges {
				if inPanic[e.Site] {
					continue
				}
				why := ""
				if _, ok := tainted[e.Callee]; ok {
					why = "calls " + analysis.FuncShortName(e.Callee)
				} else if _, local := g.Decls[e.Callee]; !local && e.Callee.Pkg() != nil && e.Callee.Pkg() != pass.Pkg {
					if crossWhy(e.Callee) != "" {
						why = "calls " + e.Callee.Pkg().Name() + "." + analysis.FuncShortName(e.Callee)
					}
				}
				if why != "" {
					if taintDecl(d, why) {
						changed = true
					}
					break
				}
			}
		}
	}
	for _, d := range g.List {
		if why, ok := tainted[d.Fn]; ok {
			pass.ExportObjectFact(d.Fn, &Allocates{Why: why})
		}
	}

	// Roots: consult HotPath on every declaration so each directive is
	// either matched (and owned) or reported unused by the driver.
	var roots []*callgraph.Decl
	for _, d := range g.List {
		if pass.HotPath(d.File, d.Decl) {
			roots = append(roots, d)
		}
	}

	reachedFrom := make(map[*types.Func]*types.Func)
	var order []*types.Func
	for _, root := range roots {
		stack := []*types.Func{root.Fn}
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, seen := reachedFrom[fn]; seen {
				continue
			}
			d, declared := g.Decls[fn]
			if !declared || blocked[fn] {
				continue
			}
			reachedFrom[fn] = root.Fn
			order = append(order, fn)
			for _, e := range d.Edges {
				if _, local := g.Decls[e.Callee]; local {
					stack = append(stack, e.Callee)
				}
			}
		}
	}

	for _, fn := range order {
		root := reachedFrom[fn]
		d := g.Decls[fn]
		for _, s := range sites[fn] {
			if fn == root {
				pass.Reportf(s.pos, "%s allocates in hot path %s; hot paths must be allocation-free (//mixedrelvet:allow hotalloc <reason> for amortized growth)",
					s.what, analysis.FuncShortName(root))
			} else {
				pass.Reportf(s.pos, "%s allocates in %s, reachable from hot path %s; hot paths must be allocation-free (//mixedrelvet:allow hotalloc <reason> for amortized growth)",
					s.what, analysis.FuncShortName(fn), analysis.FuncShortName(root))
			}
		}
		for _, e := range d.Edges {
			if _, local := g.Decls[e.Callee]; local || e.Callee.Pkg() == nil || e.Callee.Pkg() == pass.Pkg {
				continue
			}
			if inPanic[e.Site] {
				continue
			}
			why := crossWhy(e.Callee)
			if why == "" || pass.Allowed(d.File, e.Site) {
				continue
			}
			callee := e.Callee.Pkg().Name() + "." + analysis.FuncShortName(e.Callee)
			if fn == root {
				pass.Reportf(e.Site.Pos(), "call to %s allocates (%s) in hot path %s; hot paths must be allocation-free",
					callee, why, analysis.FuncShortName(root))
			} else {
				pass.Reportf(e.Site.Pos(), "call to %s allocates (%s) in %s, reachable from hot path %s; hot paths must be allocation-free",
					callee, why, analysis.FuncShortName(fn), analysis.FuncShortName(root))
			}
		}
	}
	return nil, nil
}

// collectSites gathers the visible allocation sites in a function body,
// skipping panic payloads and allow-exempted statements. Function calls
// inside panic arguments are recorded in inPanic so the caller can exempt
// their call-graph edges the same way (the payload of a DUE abort may be
// built with allocating helpers — the sample has already left the hot
// loop).
func collectSites(pass *analysis.Pass, file *ast.File, body *ast.BlockStmt, inPanic map[*ast.CallExpr]bool) []allocSite {
	var out []allocSite
	var stack []ast.Node
	underPanic := func() bool {
		for _, n := range stack[:len(stack)-1] {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
						return true
					}
				}
			}
		}
		return false
	}
	exempt := func() bool {
		if underPanic() {
			return true
		}
		for _, n := range stack {
			if pass.Allowed(file, n) {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch e := n.(type) {
		case *ast.CallExpr:
			id, ok := e.Fun.(*ast.Ident)
			if !ok {
				if underPanic() {
					inPanic[e] = true
				}
				return true
			}
			if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
				if underPanic() {
					inPanic[e] = true
				}
				return true
			}
			switch id.Name {
			case "make", "new", "append":
				if !exempt() {
					out = append(out, allocSite{e.Pos(), id.Name})
				}
			}
		case *ast.CompositeLit:
			if valueLit(pass, e, stack) {
				return true // a stack value; its elements may still allocate
			}
			if !exempt() {
				out = append(out, allocSite{e.Pos(), "composite literal"})
			}
			// Inner literals are part of the same allocation. Pop manually:
			// ast.Inspect sends no nil for a subtree it does not enter.
			stack = stack[:len(stack)-1]
			return false
		case *ast.FuncLit:
			if !exempt() {
				out = append(out, allocSite{e.Pos(), "function literal"})
			}
		}
		return true
	})
	return out
}

// valueLit reports whether lit builds a struct or array value that is
// not the operand of &: such a literal lives wherever its value does
// (typically the stack), so it is no allocation site of its own. A
// value that later escapes (its address taken, or boxed into an
// interface) is not tracked.
func valueLit(pass *analysis.Pass, lit *ast.CompositeLit, stack []ast.Node) bool {
	if len(stack) >= 2 {
		if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND {
			return false
		}
	}
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

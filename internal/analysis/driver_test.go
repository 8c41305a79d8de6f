package analysis

import (
	"go/ast"
	"reflect"
	"testing"
)

// nastyFact marks an object that is a Nasty constant or is initialized
// from one, directly or through a chain of package-level variables.
type nastyFact struct{ Origin string }

func (*nastyFact) AFact() {}

func (f *nastyFact) String() string { return "nasty(" + f.Origin + ")" }

// newNastyAnalyzer builds a throwaway interprocedural analyzer for
// driver tests: a package's Nasty constant earns an object fact, and a
// package-level variable initialized from a marked object of another
// package inherits the mark and reports the reference.
func newNastyAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "nastytest",
		Doc:  "test analyzer: propagate nasty object facts across imports",
		Run: func(pass *Pass) (interface{}, error) {
			if obj := pass.Pkg.Scope().Lookup("Nasty"); obj != nil {
				pass.ExportObjectFact(obj, &nastyFact{Origin: pass.Pkg.Path()})
			}
			for _, file := range pass.Files {
				for _, decl := range file.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || len(vs.Values) != len(vs.Names) {
							continue
						}
						for i, name := range vs.Names {
							sel, ok := vs.Values[i].(*ast.SelectorExpr)
							if !ok {
								continue
							}
							used := pass.TypesInfo.Uses[sel.Sel]
							var f nastyFact
							if used == nil || used.Pkg() == pass.Pkg || !pass.ImportObjectFact(used, &f) {
								continue
							}
							pass.Reportf(sel.Pos(), "uses nasty %s.%s (origin %s)", used.Pkg().Path(), used.Name(), f.Origin)
							pass.ExportObjectFact(pass.TypesInfo.Defs[name], &nastyFact{Origin: f.Origin})
						}
					}
				}
			}
			return nil, nil
		},
	}
}

// nastyTree is a three-level import chain: only leaf declares Nasty, so
// any diagnostic in mid or top exists purely because facts crossed
// package boundaries: top's W is marked only through mid's V.
func nastyTree() map[string]string {
	return map[string]string{
		"leaf/leaf.go": "package leaf\n\nconst Nasty = 1\n",
		"mid/mid.go":   "package mid\n\nimport \"leaf\"\n\nvar V = leaf.Nasty\n",
		"top/top.go":   "package top\n\nimport \"mid\"\n\nvar W = mid.V\n",
	}
}

func loadTree(t *testing.T, dir string, patterns ...string) (*Loader, []*Package) {
	t.Helper()
	loader := &Loader{Dir: dir}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkgs
}

// TestDriverCrossPackageFactPropagation is the tentpole property: a
// violation whose cause lives two imports away from the requested
// package is reported, and the same request without dependency analysis
// (the pre-fact, per-package shape) provably misses it.
func TestDriverCrossPackageFactPropagation(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, nastyTree())
	loader, pkgs := loadTree(t, dir, "top")

	res, err := Run(Config{Lookup: loader.Lookup}, pkgs, []*Analyzer{newNastyAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly the report of W's reference in top", res.Findings)
	}
	if got, want := res.Findings[0].Message, "uses nasty mid.V (origin leaf)"; got != want {
		t.Errorf("finding = %q, want %q (fact must propagate through mid, which is not requested)", got, want)
	}
	if res.Findings[0].Package != "top" {
		t.Errorf("finding package = %q; dependency packages must not contribute findings", res.Findings[0].Package)
	}
	var factPkgs []string
	for _, r := range res.Facts {
		factPkgs = append(factPkgs, r.Package)
	}
	if got := len(res.Facts); got != 3 {
		t.Errorf("facts = %v (packages %v), want facts on leaf.Nasty, mid.V and top.W", res.Facts, factPkgs)
	}

	// Per-package counterfactual: same request, no Lookup, so the driver
	// sees only top. No facts arrive and the violation vanishes.
	_, pkgsOnly := loadTree(t, dir, "top")
	blind, err := Run(Config{}, pkgsOnly, []*Analyzer{newNastyAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	if len(blind.Findings) != 0 {
		t.Errorf("per-package run findings = %v, want none: this test documents what the old suite missed", blind.Findings)
	}
}

// TestDriverDeterministicAcrossWorkers pins the contract that worker
// count affects wall-clock only: findings and facts are identical at any
// parallelism.
func TestDriverDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	files := nastyTree()
	// Independent siblings give the scheduler something to actually run
	// in parallel within a wave.
	files["spur/spur.go"] = "package spur\n\nimport \"leaf\"\n\nvar S = leaf.Nasty\n"
	files["calm/calm.go"] = "package calm\n\nvar C = 2\n"
	writeTree(t, dir, files)

	var base *Result
	for _, workers := range []int{1, 2, 8} {
		loader, pkgs := loadTree(t, dir, "...")
		res, err := Run(Config{Workers: workers, Lookup: loader.Lookup}, pkgs, []*Analyzer{newNastyAnalyzer()})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			if len(res.Findings) != 3 {
				t.Fatalf("findings = %v, want reports in mid, spur and top", res.Findings)
			}
			continue
		}
		if !reflect.DeepEqual(res.Findings, base.Findings) {
			t.Errorf("workers=%d findings differ:\n got %v\nwant %v", workers, res.Findings, base.Findings)
		}
		if !reflect.DeepEqual(res.Facts, base.Facts) {
			t.Errorf("workers=%d facts differ:\n got %v\nwant %v", workers, res.Facts, base.Facts)
		}
	}
}

// TestDriverDirectiveValidation covers the three directive diagnostics:
// unknown analyzer names, stale exemptions for analyzers that ran, and
// unknown verbs. A leftover exemption for an analyzer that was folded
// into confine is an unknown name.
func TestDriverDirectiveValidation(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"d/d.go": `package d

//mixedrelvet:allow nosuch reason
var X = 1

//mixedrelvet:allow nastytest never consulted
var Y = 2

//mixedrelvet:frobnicate
var Z = 3

//mixedrelvet:allow boundedgo leftover from before confine
var W = 4
`,
	})
	_, pkgs := loadTree(t, dir, "d")
	res, err := Run(Config{Known: []string{"confine"}}, pkgs, []*Analyzer{newNastyAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`//mixedrelvet:allow names unknown analyzer "nosuch" (use mixedrelvet -list)`,
		`unused //mixedrelvet:allow nastytest directive: it no longer exempts anything; delete it`,
		`unknown mixedrelvet directive "//mixedrelvet:frobnicate" (known: allow, hotpath)`,
		`//mixedrelvet:allow names unknown analyzer "boundedgo" (use mixedrelvet -list)`,
	}
	if len(res.Findings) != len(want) {
		t.Fatalf("findings = %v, want %d directive diagnostics", res.Findings, len(want))
	}
	for i, f := range res.Findings {
		if f.Analyzer != DirectivesAnalyzerName {
			t.Errorf("finding %d analyzer = %q, want %q", i, f.Analyzer, DirectivesAnalyzerName)
		}
		if f.Message != want[i] {
			t.Errorf("finding %d = %q, want %q", i, f.Message, want[i])
		}
	}
}

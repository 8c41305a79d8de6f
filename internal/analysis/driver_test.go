package analysis

import (
	"reflect"
	"testing"
)

// nastyFact marks a package that declares a Nasty constant, directly or
// through its import chain.
type nastyFact struct{ Origin string }

func (*nastyFact) AFact() {}

func (f *nastyFact) String() string { return "nasty(" + f.Origin + ")" }

// newNastyAnalyzer builds a throwaway interprocedural analyzer for
// driver tests: declaring Nasty earns the package a fact, importing a
// marked package propagates the fact and reports the import edge.
func newNastyAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "nastytest",
		Doc:  "test analyzer: propagate nasty package facts across imports",
		Run: func(pass *Pass) (interface{}, error) {
			if pass.Pkg.Scope().Lookup("Nasty") != nil {
				pass.ExportPackageFact(&nastyFact{Origin: pass.Pkg.Path()})
			}
			for _, imp := range pass.Pkg.Imports() {
				var f nastyFact
				if pass.ImportPackageFact(imp, &f) {
					pass.Reportf(pass.Files[0].Name.Pos(), "imports nasty package %s (origin %s)", imp.Path(), f.Origin)
					pass.ExportPackageFact(&nastyFact{Origin: f.Origin})
				}
			}
			return nil, nil
		},
	}
}

// nastyTree is a three-level import chain: only leaf declares Nasty, so
// any diagnostic in mid or top exists purely because facts crossed
// package boundaries.
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
		t.Fatalf("findings = %v, want exactly the import-edge report in top", res.Findings)
	}
	if got, want := res.Findings[0].Message, "imports nasty package mid (origin leaf)"; got != want {
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
		t.Errorf("facts = %v (packages %v), want leaf, mid and top package facts", res.Facts, factPkgs)
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

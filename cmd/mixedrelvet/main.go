// Command mixedrelvet is the repository's invariant checker: a
// multichecker driving the analyzers of internal/analysis/suite over the
// module, built entirely on the standard library so it runs in offline
// build environments.
//
// The suite mechanically enforces what the simulator's correctness
// argument assumes: kernel arithmetic goes through fp.Env in every
// package Run reaches (softfloat), raw encodings are never treated as
// numbers (bitsops), kernel inner loops use the batch execution layer
// where one exists (batchops), results are a function of the seed alone
// and render in deterministic order (determinism), go statements and
// recover() stay in the execution engine while the compiled trace and
// the fault-injecting checkpoint filesystem stay behind their owners
// (confine), annotated hot paths do not allocate (hotalloc), and
// telemetry stays observe-only (telemetry).
//
// The driver is interprocedural: requested packages plus everything
// they transitively import are analyzed in topological order so facts
// flow across package boundaries, and import-independent packages run
// in parallel on every CPU.
//
// Usage:
//
//	mixedrelvet [-only name,name] [-list] [-json] [packages...]
//
// Packages default to ./... resolved against the enclosing module. The
// exit status is 1 if any diagnostic was reported, 2 on usage or
// load/driver failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/suite"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range suite.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixedrelvet:", err)
		fmt.Fprintln(os.Stderr, "usage: mixedrelvet [-only name,name] [-list] [-json] [packages...]")
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, module, err := findModule()
	if err != nil {
		fatal(err)
	}
	loader := &analysis.Loader{Dir: root, Module: module}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	cfg := analysis.Config{
		Workers: runtime.NumCPU(),
		Known:   suite.Names(),
		Lookup:  loader.Lookup,
	}
	res, err := analysis.Run(cfg, pkgs, analyzers)
	if err != nil {
		printFindings(res.Findings, *jsonOut)
		fatal(err)
	}
	printFindings(res.Findings, *jsonOut)
	if len(res.Findings) > 0 {
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable diagnostic shape (-json).
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func printFindings(findings []analysis.Finding, asJSON bool) {
	if !asJSON {
		for _, f := range findings {
			fmt.Println(relativize(f))
		}
		return
	}
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		f.Pos.Filename = relPath(f.Pos.Filename)
		out = append(out, jsonFinding{
			Analyzer: f.Analyzer,
			Package:  f.Package,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := suite.Analyzers()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q in -only (use -list for the suite)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// findModule walks up from the working directory to the enclosing go.mod
// and returns its directory and module path.
func findModule() (dir, module string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// relPath shortens a path relative to the working directory when
// possible.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

// relativize shortens a finding's path relative to the working directory
// when possible.
func relativize(f analysis.Finding) string {
	f.Pos.Filename = relPath(f.Pos.Filename)
	return f.String()
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mixedrelvet:", err)
	os.Exit(2)
}

// Command mixedrelvet is the repository's invariant checker: a
// multichecker driving the analyzers under internal/analysis over the
// module, built entirely on the standard library so it runs in offline
// build environments.
//
// The suite mechanically enforces what the simulator's correctness
// argument assumes: kernel arithmetic goes through fp.Env in every
// package Run reaches (softfloat), raw encodings are never treated as
// numbers (bitsops), kernel inner loops use the batch execution layer
// where one exists (batchops), results are a function of the seed alone
// and render in deterministic order (determinism), all concurrency
// stays under the bounded scheduler (boundedgo), emulated crash/hang
// aborts are recovered only by the execution engine's guard
// (panicsafety), compiled-trace serving stays behind exec/inject
// (compiledreplay), the fault-injecting checkpoint filesystem stays
// behind the soak harness (chaos), and annotated hot paths do not
// allocate (hotalloc).
//
// The driver is interprocedural: requested packages plus everything
// they transitively import are analyzed in topological order so facts
// flow across package boundaries, import-independent packages run in
// parallel, and per-package results are cached on disk (keyed by source
// content, dependency keys and the analyzer fingerprint) so a warm run
// with no source changes re-analyzes nothing.
//
// Usage:
//
//	mixedrelvet [-only name,name] [-list] [-json] [-workers n] [-cache dir] [packages...]
//
// Packages default to ./... resolved against the enclosing module. The
// cache defaults to $MIXEDRELVET_CACHE or the user cache directory;
// -cache ” disables it. The exit status is 1 if any diagnostic was
// reported, 2 on usage or load/driver failure.
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
	workers := flag.Int("workers", runtime.NumCPU(), "max import-independent packages analyzed in parallel")
	cacheDir := flag.String("cache", analysis.DefaultCacheDir(), "result cache directory ('' disables caching)")
	stats := flag.Bool("stats", false, "print cache hit/miss counts to stderr")
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
		fmt.Fprintln(os.Stderr, "usage: mixedrelvet [-only name,name] [-list] [-json] [-workers n] [-cache dir] [packages...]")
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
	var cache *analysis.Cache
	if *cacheDir != "" {
		cache = &analysis.Cache{Dir: *cacheDir}
	}

	// Warm fast path: if every package in the transitive closure has a
	// cache entry under the current source hashes, serve the findings
	// without parsing a single function body.
	res, ok := analysis.TryCached(cache, root, module, patterns, analyzers, suite.Names())
	if !ok {
		loader := &analysis.Loader{Dir: root, Module: module}
		pkgs, err := loader.Load(patterns...)
		if err != nil {
			fatal(err)
		}
		cfg := analysis.Config{
			Workers: *workers,
			Cache:   cache,
			Known:   suite.Names(),
			Lookup:  loader.Lookup,
		}
		res, err = analysis.Run(cfg, pkgs, analyzers)
		if err != nil {
			printFindings(res.Findings, *jsonOut)
			fatal(err)
		}
	}
	if *stats {
		// The telemetry counters are the single source of truth: both
		// the warm fast path and the full driver account to them, and
		// TryCached's commit-on-success discipline keeps a cold-cache
		// fall-through from double-counting its partial hits.
		hits, misses := analysis.CacheStats()
		fmt.Fprintf(os.Stderr, "mixedrelvet: %d packages from cache, %d analyzed\n", hits, misses)
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

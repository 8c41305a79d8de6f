package confine_test

import (
	"testing"

	"mixedrel/internal/analysis/analysistest"
	"mixedrel/internal/analysis/confine"
)

// TestAnalyzer runs the analyzer once per row of its table, over the
// testdata packages that exercise that row: the violating packages, the
// clean packages the row allows, and the _test.go exemptions. Every
// diagnostic in a loaded package must be wanted, so a row that starts
// reporting in another row's allowed package fails here too.
func TestAnalyzer(t *testing.T) {
	for _, tc := range []struct {
		row      string
		patterns []string
	}{
		{"go", []string{"b", "internal/exec"}},
		{"recover", []string{"p", "internal/exec"}},
		{"chaos", []string{"chaosrogue", "chaossly", "internal/chaos", "cmd/mixedrelstress"}},
		{"traceir", []string{"tracerogue", "tracesly", "internal/inject", "internal/exec", "internal/traceir"}},
	} {
		t.Run(tc.row, func(t *testing.T) {
			analysistest.Run(t, analysistest.TestData(t), confine.Analyzer, tc.patterns...)
		})
	}
}

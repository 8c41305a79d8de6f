// Package suite is the canonical registry of the mixedrelvet analyzer
// suite. cmd/mixedrelvet runs it; analysistest and the driver use its
// name list to validate //mixedrelvet:allow directives, so a restricted
// run (-only, or a single analyzer under test) still knows the full set
// of legal analyzer names.
package suite

import (
	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/batchops"
	"mixedrel/internal/analysis/bitsops"
	"mixedrel/internal/analysis/confine"
	"mixedrel/internal/analysis/determinism"
	"mixedrel/internal/analysis/hotalloc"
	"mixedrel/internal/analysis/softfloat"
	"mixedrel/internal/analysis/telemetry"
)

// Analyzers returns the full suite in canonical (name-sorted) order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		batchops.Analyzer,
		bitsops.Analyzer,
		confine.Analyzer,
		determinism.Analyzer,
		hotalloc.Analyzer,
		softfloat.Analyzer,
		telemetry.Analyzer,
	}
}

// Names returns the names of the full suite, the legal targets of a
// //mixedrelvet:allow directive.
func Names() []string {
	all := Analyzers()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

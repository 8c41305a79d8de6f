// Package inject is an allowed importer of internal/traceir: it owns the
// compare-serving discipline, so its trace use carries no diagnostics.
// The other rows still hold here.
package inject

import "internal/traceir"

// Replay serves one position from the compiled trace.
func Replay(p *traceir.Program, pos uint64) (uint64, bool) { return p.Serve(pos) }

// Swallow recovers an abort inside the injector, where only exec.Guard
// may.
func Swallow(f func()) {
	defer func() {
		_ = recover() // want `recover\(\) outside internal/exec swallows emulated crash/hang aborts`
	}()
	f()
}

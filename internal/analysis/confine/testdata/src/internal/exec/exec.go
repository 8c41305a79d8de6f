// Package exec stands in for the real execution engine at its exempt
// import path: the one place goroutines may be launched and panics
// recovered, and an allowed importer of internal/traceir (it records and
// compiles the golden run). It carries no diagnostics.
package exec

import "internal/traceir"

// ForEach runs job(0..n-1) concurrently.
func ForEach(n int, job func(int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			job(i)
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// Guard runs fn and converts a panic into a recorded abort.
func Guard(fn func()) (v any) {
	defer func() {
		v = recover()
	}()
	fn()
	return nil
}

// Compile returns the stand-in compiled program.
func Compile() *traceir.Program {
	p := &traceir.Program{}
	p.Serve(0)
	return p
}

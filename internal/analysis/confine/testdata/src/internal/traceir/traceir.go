// Package traceir stands in for the real trace-IR package at the
// guarded import path.
package traceir

// Program is the stand-in compiled golden trace.
type Program struct{}

// Serve is the stand-in serving entry point.
func (p *Program) Serve(pos uint64) (uint64, bool) { return 0, false }

// Serve0 selects through its own value: the package itself is allowed.
func Serve0(p *Program) (uint64, bool) { return p.Serve(0) }

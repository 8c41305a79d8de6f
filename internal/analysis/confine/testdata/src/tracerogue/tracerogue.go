// Package tracerogue consumes the compiled trace from outside the
// injector layers.
package tracerogue

import "internal/traceir" // want `import of internal/traceir outside internal/exec and internal/inject`

// Peek replays recorded bits without the injector's operand compare.
func Peek(p *traceir.Program) (uint64, bool) { return p.Serve(0) } // want `use of internal/traceir\.Serve through a value obtained from another package`

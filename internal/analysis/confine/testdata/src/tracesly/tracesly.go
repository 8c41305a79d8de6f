// Package tracesly consumes the compiled trace without ever importing
// it: the method rides along with the value exec hands out, so an
// import-based check alone never sees the breach.
package tracesly

import "internal/exec"

// Leak replays recorded bits with no operand compare and no import of
// internal/traceir anywhere in the package.
func Leak() (uint64, bool) {
	return exec.Compile().Serve(0) // want `use of internal/traceir\.Serve through a value obtained from another package`
}

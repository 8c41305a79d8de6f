// Test files are exempt: equivalence suites drive the program from
// outside the injector.
package tracerogue

import (
	"testing"

	"internal/traceir"
)

func TestPeek(t *testing.T) {
	if _, ok := Peek(&traceir.Program{}); ok {
		t.Fatal("stand-in served")
	}
}

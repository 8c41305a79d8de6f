// Test files are exempt: unit tests legitimately inject faults.
package chaosrogue

import (
	"testing"

	"internal/chaos"
)

func TestSabotage(t *testing.T) {
	fs := chaos.New()
	fs.Arm()
	if Sabotage() == nil {
		t.Fatal("nil FS")
	}
}

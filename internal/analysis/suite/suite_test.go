package suite

import (
	"reflect"
	"testing"
)

// TestNames pins the suite: the names mixedrelvet -list prints and the
// only legal targets of a //mixedrelvet:allow directive.
func TestNames(t *testing.T) {
	want := []string{"batchops", "bitsops", "confine", "determinism", "hotalloc", "softfloat", "telemetry"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

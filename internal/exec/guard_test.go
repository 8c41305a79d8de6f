package exec

import "testing"

// classifiedSignal is a panic value that marks itself as a classified
// outcome, as the injector's emulated crash/hang signal does.
type classifiedSignal struct{ code int }

func (classifiedSignal) ClassifiedOutcome() {}

// TestGuardClassifiedSkipsStack: a classified panic value is recovered
// into an Abort carrying the value but no stack, an ordinary panic still
// carries its stack, and the guard's panic counter counts both.
func TestGuardClassifiedSkipsStack(t *testing.T) {
	before := mGuardPanics.Load()

	abort := Guard(func() { panic(classifiedSignal{code: 7}) })
	if abort == nil {
		t.Fatal("classified panic not recovered")
	}
	if sig, ok := abort.Value.(classifiedSignal); !ok || sig.code != 7 {
		t.Errorf("abort value %#v, want classifiedSignal{7}", abort.Value)
	}
	if abort.Stack != "" {
		t.Errorf("classified abort captured a stack:\n%s", abort.Stack)
	}

	abort = Guard(func() { panic("simulator bug") })
	if abort == nil {
		t.Fatal("ordinary panic not recovered")
	}
	if abort.Stack == "" {
		t.Error("ordinary panic lost its stack")
	}

	if got := mGuardPanics.Load() - before; got != 2 {
		t.Errorf("exec_guard_panics advanced %d, want 2 (classified and ordinary)", got)
	}
}

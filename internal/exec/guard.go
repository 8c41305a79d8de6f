package exec

import (
	"fmt"
	"runtime/debug"
)

// Abort is the diagnostic record of a panic recovered by Guard: a
// sample whose execution died inside the simulator instead of producing
// a classifiable outcome.
type Abort struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery, empty for a
	// Classified value. It is diagnostic-only: stacks contain addresses
	// and goroutine ids, so they must never reach report tables or
	// checkpoint journals, where byte-identical reproduction is the
	// contract.
	Stack string
}

// Classified is implemented by panic values that carry a classified
// sample outcome — an emulated crash or hang unwinding out of a kernel —
// rather than a simulator failure. Their caller translates them into a
// result, so Guard recovers them without capturing a stack: on a
// campaign with control sites that capture would otherwise run for
// every DUE sample, only to be thrown away.
type Classified interface {
	ClassifiedOutcome()
}

// String renders the panic value without the nondeterministic stack.
func (a *Abort) String() string { return fmt.Sprint(a.Value) }

// Guard runs fn and converts a panic into an *Abort diagnostic (nil
// when fn returns normally). It is the ONLY recover point in the
// simulator — enforced by the confine analyzer — so panic isolation
// stays a property of the execution engine instead of being scattered
// through campaign code, and a swallowed panic can never silently turn
// a simulator bug into a masked outcome.
func Guard(fn func()) (abort *Abort) {
	defer func() {
		if v := recover(); v != nil {
			mGuardPanics.Inc()
			abort = &Abort{Value: v}
			if _, ok := v.(Classified); !ok {
				abort.Stack = string(debug.Stack())
			}
		}
	}()
	fn()
	return nil
}

// Package p recovers from panics outside the execution engine.
package p

func swallow(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil { // want `recover\(\) outside internal/exec swallows emulated crash/hang aborts`
			err = nil
		}
	}()
	f()
	return nil
}

func bareRecover() {
	defer recover() // want `recover\(\) outside internal/exec swallows emulated crash/hang aborts`
}

// recover here is a method, not the builtin — no diagnostic.
type retrier struct{}

func (retrier) recover() int { return 0 }

func viaMethod(r retrier) int { return r.recover() }

// A shadowing local also isn't the builtin.
func shadowed() {
	recover := func() any { return nil }
	_ = recover()
}

// allowlisted is the escape hatch for a reviewed exception.
func allowlisted(f func()) {
	defer func() {
		//mixedrelvet:allow confine reviewed: CLI top-level crash banner
		_ = recover()
	}()
	f()
}

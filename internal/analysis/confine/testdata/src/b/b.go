// Package b launches goroutines outside the scheduler package.
package b

import "sync"

func fanOut(jobs []func()) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() { // want `go statement outside internal/exec escapes the bounded deterministic scheduler`
			defer wg.Done()
			j()
		}()
	}
	wg.Wait()
}

func fireAndForget(f func()) {
	go f() // want `go statement outside internal/exec escapes the bounded deterministic scheduler`
}

// drainStdin is the kind of OS-boundary helper the directive exists for:
// a reader goroutine that never touches campaign state.
func drainStdin(read func() bool) {
	//mixedrelvet:allow confine OS-boundary reader, touches no campaign state
	go func() {
		for read() {
		}
	}()
}

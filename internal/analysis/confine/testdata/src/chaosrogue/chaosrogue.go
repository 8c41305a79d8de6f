// Package chaosrogue arms the chaos layer from production code.
package chaosrogue

import "internal/chaos" // want `import of internal/chaos outside the soak harness`

// Sabotage redirects checkpoint I/O into the fault injector.
func Sabotage() *chaos.FS {
	fs := chaos.New()
	fs.Arm() // want `use of internal/chaos\.Arm through a value obtained from another package`
	return fs
}

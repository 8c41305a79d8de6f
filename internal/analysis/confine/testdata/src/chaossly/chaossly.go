// Package chaossly arms the chaos layer without ever importing it: the
// methods ride along with the value chaosrogue hands out, so an
// import-based check alone never sees the breach.
package chaossly

import "chaosrogue"

// Leak arms fault injection with no import of internal/chaos anywhere
// in the package.
func Leak() uint64 {
	fs := chaosrogue.Sabotage()
	fs.Arm()       // want `use of internal/chaos\.Arm through a value obtained from another package`
	return fs.Seed // want `use of internal/chaos\.Seed through a value obtained from another package`
}

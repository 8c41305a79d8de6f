// Package chaos stands in for the real fault-injection layer at the
// guarded import path.
package chaos

// FS is the stand-in fault-injecting filesystem.
type FS struct {
	Seed uint64
}

// Arm is the stand-in fault-arming entry point.
func (f *FS) Arm() {}

// New hands an armed FS out (how chaossly obtains one).
func New() *FS { return &FS{} }

// NewArmed selects through its own value: the package itself is allowed.
func NewArmed() *FS {
	f := New()
	f.Arm()
	return f
}

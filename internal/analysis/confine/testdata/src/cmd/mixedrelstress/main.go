// Package main is the soak harness: an allowed importer, so it carries
// no diagnostics.
package main

import "internal/chaos"

func main() {
	fs := chaos.New()
	fs.Arm()
	_ = fs.Seed
}

package main

import (
	"reflect"
	"testing"

	"mixedrel"
)

// TestParseFormats: an empty -formats means every paper precision the
// device supports, names and aliases go through fp.ParseFormat, and an
// unknown name or a format the device does not implement is an error.
func TestParseFormats(t *testing.T) {
	phi, gpu := mixedrel.NewXeonPhi(), mixedrel.NewGPU()
	h, b, s, d := mixedrel.Half, mixedrel.BFloat16, mixedrel.Single, mixedrel.Double
	for in, want := range map[string][]mixedrel.Format{"": {s, d}, "double,,fp32": {d, s}} {
		if got, err := parseFormats(in, phi); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseFormats(%q, phi) = %v, %v; want %v", in, got, err, want)
		}
	}
	for in, want := range map[string][]mixedrel.Format{"": {h, s, d}, "half, BF16,single,binary64": {h, b, s, d}} {
		if got, err := parseFormats(in, gpu); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseFormats(%q, gpu) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"half", "single,bfloat16", "fp8", ","} {
		if got, err := parseFormats(in, phi); err == nil {
			t.Errorf("parseFormats(%q, phi) accepted: %v", in, got)
		}
	}
}

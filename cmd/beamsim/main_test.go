package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"

	"mixedrel"
)

// TestParseArgsRejectsBadUsage: non-positive counts and scales, a stray
// positional argument, unknown names and an unsupported precision are
// usage errors that print the usage text before any kernel is built —
// never a panic mid-campaign.
func TestParseArgsRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-size", "-3"},
		{"-size", "0"},
		{"-trials", "0"},
		{"-trials", "-5"},
		{"-opscale", "0"},
		{"-opscale", "-1e6"},
		{"-opscale", "NaN"},
		{"-datascale", "0"},
		{"-datascale", "-2"},
		{"-workers", "0"},
		{"-sample-workers", "-1"},
		{"-kernel", "mxm", "extra"},
		{"-device", "tpu"},
		{"-kernel", "fft"},
		{"-format", "fp8"},
		{"-size", "big"},
	} {
		var errOut bytes.Buffer
		o, err := parseArgs(args, &errOut)
		if err == nil || o != nil {
			t.Errorf("%q: accepted, options %+v", args, o)
			continue
		}
		if !strings.Contains(errOut.String(), "Usage of beamsim") || !strings.Contains(errOut.String(), "-datascale") {
			t.Errorf("%q: no usage text in %q", args, errOut.String())
		}
	}
}

// TestParseArgsAcceptsGoodUsage: a valid command line parses to the
// campaign it spells out, and -h asks for help without an error exit.
func TestParseArgsAcceptsGoodUsage(t *testing.T) {
	var errOut bytes.Buffer
	o, err := parseArgs([]string{"-device", "fpga", "-kernel", "mxm", "-size", "8", "-format", "half",
		"-trials", "40", "-seed", "7", "-opscale", "10", "-datascale", "2", "-workers", "1", "-sample-workers", "2", "-json"}, &errOut)
	if err != nil {
		t.Fatalf("rejected: %v\n%s", err, errOut.String())
	}
	if o.device.Name() != mixedrel.NewFPGA().Name() || o.format != mixedrel.Half || o.trials != 40 || o.seed != 7 ||
		o.opScale != 10 || o.dataScale != 2 || o.workers != 1 || o.sampleWorkers != 2 || !o.json {
		t.Fatalf("parsed %+v", o)
	}
	if k := o.kernel(); k.Name() != mixedrel.NewGEMM(8, 7).Name() {
		t.Fatalf("kernel %s", k.Name())
	}
	for _, name := range []string{"bfloat16", "bf16"} {
		if o, err := parseArgs([]string{"-device", "gpu", "-format", name}, &errOut); err != nil || o.format != mixedrel.BFloat16 {
			t.Fatalf("-format %s: %v", name, err)
		}
	}
	if _, err := parseArgs([]string{"-help"}, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-help: %v", err)
	}
}

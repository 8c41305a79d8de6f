package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"
)

// TestParseArgsRejectsBadUsage: every non-positive count, a stray
// positional argument and an unknown experiment are usage errors that
// print the usage text, never a silent default or a mid-run failure.
func TestParseArgsRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-workers", "-2"},
		{"-sample-workers", "-3"},
		{"-sample-workers", "0"},
		{"-trials", "-7"},
		{"-trials", "0"},
		{"-quick", "-trials", "-7"},
		{"-faults", "0"},
		{"-faults", "-1"},
		{"-quick", "stray"},
		{"-only", "fig99"},
		{"-trials", "many"},
	} {
		var errOut bytes.Buffer
		o, err := parseArgs(args, &errOut)
		if err == nil || o != nil {
			t.Errorf("%q: accepted, options %+v", args, o)
			continue
		}
		if !strings.Contains(errOut.String(), "Usage of reproduce") || !strings.Contains(errOut.String(), "-sample-workers") {
			t.Errorf("%q: no usage text in %q", args, errOut.String())
		}
	}
}

// TestParseArgsAcceptsGoodUsage: valid command lines parse to the
// configuration they spell out, and -h asks for help without an error
// exit.
func TestParseArgsAcceptsGoodUsage(t *testing.T) {
	var errOut bytes.Buffer
	o, err := parseArgs([]string{"-quick", "-only", "fig3", "-seed", "7", "-trials", "30", "-faults", "40",
		"-workers", "1", "-sample-workers", "2", "-csv"}, &errOut)
	if err != nil {
		t.Fatalf("rejected: %v\n%s", err, errOut.String())
	}
	c := o.cfg
	if o.only.ID != "fig3" || !o.csv || o.list || !c.Quick || c.Seed != 7 || c.Trials != 30 || c.Faults != 40 ||
		c.Workers != 1 || c.SampleWorkers != 2 {
		t.Fatalf("parsed %+v", o)
	}
	if o, err := parseArgs(nil, &errOut); err != nil || o.only.ID != "" || o.cfg.Workers < 1 || o.cfg.Trials != 2000 {
		t.Fatalf("defaults: %+v, %v", o, err)
	}
	if _, err := parseArgs([]string{"-h"}, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
}

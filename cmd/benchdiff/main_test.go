package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestSortSnapshotsOrdering(t *testing.T) {
	// Scrambled input covering the whole scheme: multiple days,
	// same-day reruns with numeric (not lexicographic) suffix order,
	// the plain file as each day's newest, and non-snapshot noise.
	in := []string{
		"BENCH_20260805.json",
		"BENCH_20260805.10.json",
		"BENCH_20260803.json",
		"BENCH_20260805.2.json",
		"BENCH_20260805.0.json",
		"BENCH_20260801.1.json",
		"BENCH_20260801.json",
		"EXPERIMENTS.md",
		"BENCH_notadate.json",
		"bench.sh",
	}
	want := []string{
		"BENCH_20260801.1.json",
		"BENCH_20260801.json",
		"BENCH_20260803.json",
		"BENCH_20260805.0.json",
		"BENCH_20260805.2.json",
		"BENCH_20260805.10.json",
		"BENCH_20260805.json",
	}
	if got := sortSnapshots(in); !reflect.DeepEqual(got, want) {
		t.Errorf("sortSnapshots:\n got %v\nwant %v", got, want)
	}
	if got := sortSnapshots(nil); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
}

func TestFindBenchPrefixInsensitive(t *testing.T) {
	entries := map[string]entry{
		"BenchmarkInjectionCampaign":          {Name: "BenchmarkInjectionCampaign", NsPerOp: 1000},
		"BenchmarkInjectionCampaignTelemetry": {Name: "BenchmarkInjectionCampaignTelemetry", NsPerOp: 1010},
	}
	for _, name := range []string{"InjectionCampaign", "BenchmarkInjectionCampaign"} {
		e, err := findBench(entries, name)
		if err != nil {
			t.Errorf("findBench(%q): %v", name, err)
			continue
		}
		if e.NsPerOp != 1000 {
			t.Errorf("findBench(%q) ns/op = %v, want 1000", name, e.NsPerOp)
		}
	}
	if _, err := findBench(entries, "Nope"); err == nil {
		t.Error("findBench of a missing benchmark did not error")
	}
}

func TestDiffWorstRegression(t *testing.T) {
	oldE := map[string]entry{
		"BenchmarkA":    {Name: "BenchmarkA", NsPerOp: 100},
		"BenchmarkB":    {Name: "BenchmarkB", NsPerOp: 200},
		"BenchmarkGone": {Name: "BenchmarkGone", NsPerOp: 50},
	}
	newE := map[string]entry{
		"BenchmarkA":   {Name: "BenchmarkA", NsPerOp: 150}, // +50%
		"BenchmarkB":   {Name: "BenchmarkB", NsPerOp: 190}, // improvement
		"BenchmarkNew": {Name: "BenchmarkNew", NsPerOp: 10},
	}
	var buf strings.Builder
	worst := diff(&buf, oldE, newE)
	if worst != 50 {
		t.Errorf("worst regression = %v, want 50", worst)
	}
	out := buf.String()
	for _, want := range []string{"REGRESSION", "new", "removed"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	// No regressions at all reports zero (improvements don't count).
	worst = diff(io.Discard, oldE, map[string]entry{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 90},
	})
	if worst != 0 {
		t.Errorf("improvement-only worst = %v, want 0", worst)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mixedrel/internal/core"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/inject"
	"mixedrel/internal/kernels"
)

func smallCampaigns() []inject.Campaign {
	gemm := kernels.NewGEMM(8, 11)
	lava := kernels.NewLavaMD(1, 4, 12)
	return []inject.Campaign{
		{Kernel: gemm, Format: fp.Single, Faults: 300, Seed: 5, Workers: 2},
		{Kernel: gemm, Format: fp.Half, Faults: 300, Seed: 6, Workers: 1},
		{Kernel: lava, Format: fp.Double, Faults: 3000, Seed: 7, Workers: 2,
			Sites: []inject.Site{inject.SiteOperand, inject.SiteMemory, inject.SiteControl},
			Sampling: &inject.Sampling{Phases: 3, Bands: inject.DefaultBitBands(fp.Double), Confidence: 0.95,
				CIHalfWidth: 0.05, Adaptive: true, Round: 64, MinPerStratum: 8}},
	}
}

func encode(t *testing.T, r *inject.Result) []byte {
	t.Helper()
	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestTracedMatchesUntraced: the traced sample loops reproduce the
// campaign engine's results byte for byte.
func TestTracedMatchesUntraced(t *testing.T) {
	exec.SetMaxWorkers(2)
	for _, c := range smallCampaigns() {
		want, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedCampaign(c, newTracer(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, got), encode(t, want)) {
			t.Errorf("%s/%v: traced result differs:\n got %s\nwant %s", c.Kernel.Name(), c.Format, encode(t, got), encode(t, want))
		}
	}
}

func TestTracedJournalResumes(t *testing.T) {
	exec.SetMaxWorkers(2)
	dir := t.TempDir()
	c := inject.Campaign{Kernel: kernels.NewGEMM(8, 11), Format: fp.Single, Faults: 500, Seed: 9, Workers: 2,
		Checkpoint: &exec.Checkpoint{Path: filepath.Join(dir, "plain.ckpt")}}
	want, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	tc := c
	tc.Checkpoint = &exec.Checkpoint{Path: filepath.Join(dir, "traced.ckpt")}
	tr := newTracer()
	first, resumed, err1, err2 := tracedJournal(tc, tr, 1)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for name, r := range map[string]*inject.Result{"journaled": first, "resumed": resumed} {
		if !bytes.Equal(encode(t, r), encode(t, want)) {
			t.Errorf("%s result differs from the untraced campaign", name)
		}
	}
	if n := len(durations(tr.snapshot(), "exec.journal_record", -1)); n != c.Faults {
		t.Errorf("%d journal_record spans for %d samples", n, c.Faults)
	}
}

// TestChecksCatchPerturbation: a perturbed result fails the campaign
// check, and the unit counts every sample of that campaign as failed.
func TestChecksCatchPerturbation(t *testing.T) {
	exec.SetMaxWorkers(2)
	for _, c := range smallCampaigns() {
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if probs := checkCampaign(c, r); len(probs) != 0 {
			t.Fatalf("clean result fails its check: %v", probs)
		}
		var un unit
		r.SDCs++
		un.account(c, r, nil)
		if un.failed != r.Faults || un.attempted != r.Faults || len(un.problems) == 0 {
			t.Errorf("perturbed result: failed %d of %d, problems %v", un.failed, un.attempted, un.problems)
		}
	}
	var un unit
	c := smallCampaigns()[0]
	un.account(c, nil, fmt.Errorf("boom"))
	if un.failed != c.Faults || un.attempted != c.Faults {
		t.Errorf("campaign error: failed %d of %d", un.failed, un.attempted)
	}
}

// TestReproMatchesCLI: a repro-quick pass renders exactly the bytes
// cmd/reproduce -quick prints at the same seed and worker count.
func TestReproMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole reproduction twice")
	}
	exec.SetMaxWorkers(2)
	p := runReproPass(&options{seed: 7, workers: 2}, nil, 0, false)
	if p.err != nil {
		t.Fatal(p.err)
	}
	cli, err := osexec.Command("go", "run", "mixedrel/cmd/reproduce", "-quick", "-workers", "2", "-seed", "7").Output()
	if err != nil {
		t.Fatal(err)
	}
	if probs := checkRepro(p.out, cli); len(probs) != 0 {
		t.Fatal(probs)
	}
}

func TestCheckTables(t *testing.T) {
	var b strings.Builder
	for _, d := range core.Experiments {
		fmt.Fprintf(&b, "== %s [%s] ==\ncol\n---\nrow\n\n", d.Title, d.ID)
	}
	good := b.String()
	if probs := checkTables([]byte(good)); len(probs) != 0 {
		t.Fatalf("complete output fails: %v", probs)
	}
	bad := strings.Replace(good, "[fig3] ==", "[fig3x] ==", 1)
	if probs := checkTables([]byte(bad)); len(probs) != 1 || !strings.Contains(probs[0], "fig3") {
		t.Fatalf("missing table: %v", probs)
	}
}

// TestCheckRepro: tables pass only when they equal the CLI's bytes, and
// a one-digit change is caught.
func TestCheckRepro(t *testing.T) {
	var b strings.Builder
	for i, d := range core.Experiments {
		fmt.Fprintf(&b, "== %s [%s] ==\ncol\n---\n%d.25\n\n", d.Title, d.ID, i)
	}
	out := []byte(b.String())
	if probs := checkRepro(out, out); len(probs) != 0 {
		t.Fatalf("identical tables fail: %v", probs)
	}
	perturbed := perturbTables(out)
	if bytes.Equal(perturbed, out) || bytes.Count(perturbed, []byte("\n")) != bytes.Count(out, []byte("\n")) {
		t.Fatalf("perturbTables changed nothing or the layout")
	}
	if probs := checkRepro(perturbed, out); len(probs) != 1 || !strings.Contains(probs[0], "differ") {
		t.Fatalf("perturbed tables: %v", probs)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json names exactly the metrics the
// benchmark reports, and its workloads exist.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, " ")
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEndNames, " "); got != want {
		t.Errorf("end_to_end = %s, benchmark reports %s", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayerNames(&options{seed: defaultSeed}), " "); got != want {
		t.Errorf("per_layer = %s\nbenchmark reports %s", got, want)
	}
	if got, want := names(spec.Workloads), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("workloads = %s, benchmark has %s", got, want)
	}
}

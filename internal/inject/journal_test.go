package inject

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
)

// corruptLines are journal lines no campaign writes: a record without
// an outcome, a null record, an outcome out of range and a crash
// without its cause. Each used to resume as a classified sample.
var corruptLines = []string{
	`{"i":0,"v":{}}`,
	`{"i":1,"v":null}`,
	`{"i":2,"v":{"o":7}}`,
	`{"i":3,"v":{"o":2}}`,
}

// writtenSamples holds one sample of every kind a campaign journals.
var writtenSamples = []struct {
	name string
	s    sample
}{
	{"masked", sample{rr: RunResult{Outcome: Masked, FaultApplied: true}}},
	{"masked kept", sample{rr: RunResult{Outcome: Masked, Output: []float64{1, -2}}}},
	{"SDC kept", sample{rr: RunResult{Outcome: SDC, MaxRelErr: math.Inf(1), FaultApplied: true,
		Output: []float64{math.NaN(), math.Copysign(0, -1)}}}},
	{"crash segfault", sample{rr: RunResult{Outcome: CrashDUE, Cause: CauseSegfault, FaultApplied: true}}},
	{"crash trap", sample{rr: RunResult{Outcome: CrashDUE, Cause: CauseTrap, FaultApplied: true}}},
	{"hang watchdog", sample{rr: RunResult{Outcome: HangDUE, Cause: CauseWatchdog, FaultApplied: true}}},
	{"aborted", sample{aborted: true, fault: "memory a[3] bit 7", panicMsg: "boom"}},
}

// journalLine renders s the way a checkpointed campaign journals sample i.
func journalLine(t testing.TB, i int, s sample) string {
	raw, err := json.Marshal(encodeSample(s))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"i":%d,"v":%s}`, i, raw)
}

// resumeGEMM runs a 4-fault GEMM(4) campaign over a journal holding
// lines.
func resumeGEMM(t *testing.T, lines ...string) (*Result, error) {
	return resumeGEMMAt(t, filepath.Join(t.TempDir(), "ck.jsonl"), lines...)
}

// resumeGEMMAt is resumeGEMM with the journal at path.
func resumeGEMMAt(t *testing.T, path string, lines ...string) (*Result, error) {
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return Campaign{Kernel: kernels.NewGEMM(4, 1), Format: fp.Single, Faults: 4, Seed: 9,
		Checkpoint: &exec.Checkpoint{Path: path}}.Run()
}

// TestCorruptJournalFailsCampaign: a journal record the encoder cannot
// have written fails the resumed campaign instead of being counted.
func TestCorruptJournalFailsCampaign(t *testing.T) {
	t.Run("all", func(t *testing.T) {
		if res, err := resumeGEMM(t, corruptLines...); err == nil || !strings.Contains(err.Error(), "exec: corrupt checkpoint record") {
			t.Fatalf("resume over %q: result %+v, err %v; want a corrupt-record error", corruptLines, res, err)
		}
	})
	for i, line := range corruptLines {
		t.Run(fmt.Sprintf("record%d", i), func(t *testing.T) {
			want := fmt.Sprintf("exec: corrupt checkpoint record %d", i)
			if _, err := resumeGEMM(t, line); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("resume over %s: err %v, want %q", line, err, want)
			}
		})
	}
}

// indexlessLines are journal lines holding a valid record but naming no
// sample: no "i", or a null, string, fractional or negative one. The
// first used to resume as sample 0, an SDC of relative error 1.
var indexlessLines = []string{
	`{"v":{"o":1,"r":4607182418800017408}}`,
	`{"i":null,"v":{"o":1,"r":4607182418800017408}}`,
	`{"i":"0","v":{"o":1,"r":4607182418800017408}}`,
	`{"i":0.5,"v":{"o":1,"r":4607182418800017408}}`,
	`{"i":-1,"v":{"o":1,"r":4607182418800017408}}`,
}

// TestJournalLineWithoutIndexReruns: a line naming no sample is
// damaged. The resumed campaign skips it and re-runs every sample,
// matching an uninterrupted run, and the journal is compacted free of
// the line.
func TestJournalLineWithoutIndexReruns(t *testing.T) {
	run := func(t *testing.T, lines ...string) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		res, err := resumeGEMMAt(t, path, lines...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(got), data
	}
	want, _ := run(t)
	for _, line := range indexlessLines {
		t.Run(line, func(t *testing.T) {
			got, data := run(t, line)
			if got != want {
				t.Errorf("resumed: %s, want the uninterrupted %s", got, want)
			}
			if strings.Contains(string(data), line) {
				t.Errorf("journal still holds the damaged line:\n%s", data)
			}
		})
	}
}

// rejectedRecords are sample records the encoder never writes, each
// named for what makes it unwritable.
var rejectedRecords = []struct{ name, raw string }{
	{"empty", ``},
	{"null", `null`},
	{"no outcome", `{}`},
	{"cause without outcome", `{"c":1}`},
	{"null outcome", `{"o":null}`},
	{"outcome below masked", `{"o":-1}`},
	{"outcome above hang", `{"o":4}`},
	{"outcome 7", `{"o":7}`},
	{"masked with cause", `{"o":0,"c":1}`},
	{"SDC with cause", `{"o":1,"c":3}`},
	{"crash without cause", `{"o":2}`},
	{"crash by watchdog", `{"o":2,"c":3}`},
	{"hang without cause", `{"o":3}`},
	{"hang by segfault", `{"o":3,"c":1}`},
	{"hang by trap", `{"o":3,"c":2}`},
	{"aborted bare", `{"o":0,"ab":true}`},
	{"aborted without panic", `{"o":0,"ab":true,"f":"x"}`},
	{"aborted without fault", `{"o":0,"ab":true,"p":"x"}`},
	{"aborted SDC", `{"o":1,"ab":true,"f":"x","p":"y"}`},
	{"aborted applied", `{"o":0,"ab":true,"fa":true,"f":"x","p":"y"}`},
	{"aborted with output", `{"o":0,"ab":true,"out":[1],"f":"x","p":"y"}`},
	{"aborted with error", `{"o":0,"ab":true,"r":1,"f":"x","p":"y"}`},
	{"masked with fault", `{"o":0,"f":"x"}`},
	{"SDC with panic", `{"o":1,"p":"x"}`},
	{"empty kept output", `{"o":1,"out":[]}`},
}

// TestJournalRecordCheck: every record kind a campaign writes decodes
// back to its sample, and each thing the encoder never writes is
// rejected.
func TestJournalRecordCheck(t *testing.T) {
	for _, w := range writtenSamples {
		t.Run("written/"+w.name, func(t *testing.T) {
			raw, err := json.Marshal(encodeSample(w.s))
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeSample(raw)
			if err != nil {
				t.Fatalf("%s rejected: %v", raw, err)
			}
			if !reflect.DeepEqual(got.record(), w.s.record()) {
				t.Errorf("%s decodes to %+v, want %+v", raw, got, w.s)
			}
		})
	}
	for _, r := range rejectedRecords {
		t.Run("rejected/"+r.name, func(t *testing.T) {
			if s, err := decodeSample(json.RawMessage(r.raw)); err == nil {
				t.Errorf("%q accepted as %+v", r.raw, s)
			}
		})
	}
}

// FuzzJournalRecord feeds resumed journal lines to the campaign's
// decoder: it never panics, and a record it accepts decodes to a
// sample whose encoding decodes back to the same sample.
func FuzzJournalRecord(f *testing.F) {
	for _, line := range corruptLines {
		f.Add(line)
	}
	for i, w := range writtenSamples {
		f.Add(journalLine(f, len(corruptLines)+i, w.s))
	}
	f.Fuzz(func(t *testing.T, line string) {
		var jl struct {
			V json.RawMessage `json:"v"`
		}
		if json.Unmarshal([]byte(line), &jl) != nil {
			return // a torn line: the journal skips it and the sample re-runs
		}
		s, err := decodeSample(jl.V)
		if err != nil {
			return
		}
		raw, err := json.Marshal(encodeSample(s))
		if err != nil {
			t.Fatalf("accepted %s, but its sample does not encode: %v", jl.V, err)
		}
		back, err := decodeSample(raw)
		if err != nil {
			t.Fatalf("accepted %s, but its re-encoding %s is rejected: %v", jl.V, raw, err)
		}
		if !reflect.DeepEqual(back.record(), s.record()) {
			t.Fatalf("accepted %s as %+v, but its re-encoding %s decodes to %+v", jl.V, s, raw, back)
		}
	})
}

package exec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGuardRecoversPanic(t *testing.T) {
	abort := Guard(func() { panic("kaboom") })
	if abort == nil {
		t.Fatal("panic not recovered")
	}
	if abort.Value != "kaboom" || abort.String() != "kaboom" {
		t.Errorf("abort value %v", abort.Value)
	}
	if abort.Stack == "" {
		t.Error("abort without a stack")
	}
	if abort := Guard(func() {}); abort != nil {
		t.Errorf("clean run aborted: %v", abort)
	}
}

func TestCheckpointEmptyPath(t *testing.T) {
	if _, err := (Checkpoint{}).Open(); err == nil {
		t.Error("empty checkpoint path accepted")
	}
}

func TestJournalRecordReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ckpt")
	j, err := Checkpoint{Path: path, Every: 2}.Open()
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		N int `json:"n"`
	}
	for i := 0; i < 5; i++ {
		if err := j.Record(i, rec{N: i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != 5 {
		t.Errorf("journal holds %d records, want 5", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	j2, err := Checkpoint{Path: path}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 5 {
		t.Fatalf("reloaded %d records, want 5", j2.Len())
	}
	for i := 0; i < 5; i++ {
		raw, ok := j2.Done(i)
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		var r rec
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.N != i*10 {
			t.Errorf("record %d holds %d, want %d", i, r.N, i*10)
		}
	}
}

// TestJournalDuplicateIndex: lines repeating a sample's record collapse
// into one, as a flush retry's rewrite leaves them; two lines giving one
// sample different values fail the open, naming the sample, instead of
// resuming whichever came last.
func TestJournalDuplicateIndex(t *testing.T) {
	dir := t.TempDir()
	open := func(name, body string) (*Journal, error) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return Checkpoint{Path: path}.Open()
	}
	j, err := open("same.ckpt", "{\"i\":0,\"v\":1}\n{\"i\":1,\"v\":{\"o\":2}}\n{\"i\":1,\"v\":{\"o\":2}}\n")
	if err != nil {
		t.Fatalf("identical duplicates rejected: %v", err)
	}
	if j.Len() != 2 {
		t.Errorf("identical duplicates reloaded as %d records, want 2", j.Len())
	}
	j.Close()
	_, err = open("differ.ckpt", "{\"i\":0,\"v\":1}\n{\"i\":7,\"v\":{\"o\":2}}\n{\"i\":7,\"v\":{\"o\":3}}\n")
	if err == nil || !strings.Contains(err.Error(), "sample 7 twice") {
		t.Fatalf("conflicting duplicates of sample 7 opened: err %v", err)
	}
}

// TestJournalTornTail: a crash mid-write leaves a torn final line; the
// reload must skip it, and appends must start on a fresh line.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	j, err := Checkpoint{Path: path, Every: 1}.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a truncated record without a newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":3,"v":tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := Checkpoint{Path: path, Every: 1}.Open()
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 3 {
		t.Fatalf("reloaded %d records, want 3 (torn tail skipped)", j2.Len())
	}
	if _, ok := j2.Done(3); ok {
		t.Error("torn record 3 resurrected")
	}
	if err := j2.Record(3, 42); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// The re-recorded sample must parse on reload: the torn line was
	// newline-terminated before appending.
	j3, err := Checkpoint{Path: path}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 4 {
		t.Fatalf("final reload has %d records, want 4", j3.Len())
	}
	raw, ok := j3.Done(3)
	if !ok || strings.TrimSpace(string(raw)) != "42" {
		t.Errorf("record 3 = %q, ok=%v, want 42", raw, ok)
	}
}

package core

import (
	"bytes"
	"testing"

	"mixedrel/internal/exec"
)

// TestGridParallelismPreservesTables verifies the central determinism
// claim of the execution engine: cross-configuration parallelism
// (Config.Workers plus the process scheduler bound) never changes a
// rendered table, because every campaign derives its own seed and rows
// are assembled in job order. Nor does the parallelism inside each
// campaign: the default sequential stream runs its samples on the
// scheduler's free slots, with the same bits at every pool size.
func TestGridParallelismPreservesTables(t *testing.T) {
	old := exec.MaxWorkers()
	defer exec.SetMaxWorkers(old)

	render := func(id string, cfg Config) []byte {
		t.Helper()
		d, ok := Get(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		tab, err := d.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := tab.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	base := Config{Seed: 2019, Trials: 40, Faults: 40, Quick: true}
	for _, id := range []string{"fig3", "fig7", "fig10a", "ext-mbu"} {
		exec.SetMaxWorkers(1)
		seq := base
		seq.Workers = 1
		seqOut := render(id, seq)

		for _, workers := range []int{2, 8} {
			exec.SetMaxWorkers(workers)
			par := base
			par.Workers = workers
			parOut := render(id, par)

			if !bytes.Equal(seqOut, parOut) {
				t.Errorf("%s: rendered table differs between Workers=1 and Workers=%d\n--- sequential ---\n%s--- parallel ---\n%s",
					id, workers, seqOut, parOut)
			}
		}
	}
}

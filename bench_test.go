package mixedrel_test

import (
	"io"
	"testing"

	"mixedrel"
	"mixedrel/internal/chaos"
	"mixedrel/internal/exec"
	"mixedrel/internal/telemetry"
)

// The four injection-campaign benchmarks are the two pairs the overhead
// gates time (overhead_gate_test.go): one GEMM(12) campaign bare and
// with telemetry fully on, and checkpointed straight to an in-memory
// filesystem and through the disarmed chaos layer. Every other speed
// number comes from _perfbench (bash _perfbench/run.sh).

// benchCampaign runs the campaign b.N times, each at its own seed and,
// when fs is set, journaled to fs(seed). The journal's filesystem is
// in memory on purpose: a real fsync costs milliseconds and would swamp
// the indirection cost TestChaosSeamOverhead wants to see.
func benchCampaign(b *testing.B, fs func(seed uint64) exec.FS) {
	k := mixedrel.NewGEMM(12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mixedrel.InjectionCampaign{Kernel: k, Format: mixedrel.Single, Faults: 50, Seed: uint64(i)}
		if fs != nil {
			c.Checkpoint = &mixedrel.Checkpoint{Path: "bench.jsonl", FS: fs(uint64(i))}
		}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInjectionCampaign(b *testing.B) { benchCampaign(b, nil) }

// BenchmarkInjectionCampaignTelemetry runs the campaign with the full
// observability stack live: counters enabled, every event encoded into
// a discarded sink. TestTelemetryOverhead gates the cost at <2% ns/op
// (always-on atomic counters are cheap; the sink work happens per
// campaign, not per operation).
func BenchmarkInjectionCampaignTelemetry(b *testing.B) {
	telemetry.SetEnabled(true)
	telemetry.SetSink(io.Discard)
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.SetSink(nil)
	}()
	benchCampaign(b, nil)
}

func BenchmarkInjectionCampaignCheckpoint(b *testing.B) {
	benchCampaign(b, func(uint64) exec.FS { return chaos.NewNullFS() })
}

// BenchmarkInjectionCampaignChaosOff journals through the chaos
// fault-injection layer, disarmed. TestChaosSeamOverhead gates the
// seam's pure indirection cost at <1% ns/op: production campaigns never
// link the chaos layer, but the exec.FS interface they do go through
// must stay free.
func BenchmarkInjectionCampaignChaosOff(b *testing.B) {
	benchCampaign(b, func(seed uint64) exec.FS {
		return &chaos.FS{Inner: chaos.NewNullFS(), Seed: seed,
			PWrite: 1, PSync: 1, PShortWrite: 1, Disarmed: true}
	})
}

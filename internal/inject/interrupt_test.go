package inject

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/telemetry"
)

// TestCampaignCancelledWithoutCheckpoint: cancellation of an
// uncheckpointed campaign returns *exec.Interrupted with no resume
// point (Journaled -1).
func TestCampaignCancelledWithoutCheckpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Campaign{
		Kernel: kernels.NewGEMM(4, 1), Format: fp.Single,
		Faults: 20, Seed: 1, Workers: 2, Context: ctx,
	}
	_, err := c.Run()
	if !errors.Is(err, exec.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	var in *exec.Interrupted
	if !errors.As(err, &in) {
		t.Fatalf("err %T is not *exec.Interrupted", err)
	}
	if in.Journaled != -1 {
		t.Fatalf("Journaled = %d, want -1 (no checkpoint)", in.Journaled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("Interrupted does not unwrap to the context error")
	}

	// Sequential mode takes the other cancellation path.
	c.Workers = 1
	if _, err := c.Run(); !errors.Is(err, exec.ErrInterrupted) {
		t.Fatalf("sequential err = %v, want ErrInterrupted", err)
	}
}

// TestCheckpointedCampaignCancelThenResume: a cancelled checkpointed
// campaign reports a non-negative journaled count, and re-running
// without the cancelled context completes byte-identically to an
// uninterrupted reference.
func TestCheckpointedCampaignCancelThenResume(t *testing.T) {
	base := Campaign{
		Kernel: kernels.NewGEMM(4, 2), Format: fp.Single,
		Faults: 30, Seed: 7, Workers: 2,
	}
	ref, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := base
	c.Context = ctx
	c.Checkpoint = &exec.Checkpoint{Path: path, Every: 1}
	_, err = c.Run()
	var in *exec.Interrupted
	if !errors.As(err, &in) {
		t.Fatalf("err = %v, want *exec.Interrupted", err)
	}
	if in.Journaled < 0 {
		t.Fatalf("checkpointed interruption reports Journaled %d", in.Journaled)
	}

	c.Context = nil
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointDegraded || res.CheckpointError != "" {
		t.Fatalf("clean resume flagged degraded: %+v", res)
	}
	gotJSON, _ := json.Marshal(res)
	if string(gotJSON) != string(refJSON) {
		t.Fatalf("resumed result diverges:\n got %s\nwant %s", gotJSON, refJSON)
	}
}

// TestStratifiedCampaignCancelThenResume: the stratified round loop
// honors cancellation with the same Interrupted contract and resumes
// byte-identically.
func TestStratifiedCampaignCancelThenResume(t *testing.T) {
	base := Campaign{
		Kernel: kernels.NewGEMM(4, 3), Format: fp.Single,
		Faults: 40, Seed: 9, Workers: 2,
		Sampling: &Sampling{Round: 16, MinPerStratum: 1},
	}
	ref, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := base
	c.Context = ctx
	c.Checkpoint = &exec.Checkpoint{Path: path, Every: 1}
	_, err = c.Run()
	var in *exec.Interrupted
	if !errors.As(err, &in) {
		t.Fatalf("err = %v, want *exec.Interrupted", err)
	}
	if in.Journaled < 0 {
		t.Fatalf("stratified interruption reports Journaled %d", in.Journaled)
	}

	c.Context = nil
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(res)
	if string(gotJSON) != string(refJSON) {
		t.Fatalf("resumed stratified result diverges:\n got %s\nwant %s", gotJSON, refJSON)
	}
}

// cancelOnWrite is a progress writer that cancels the campaign at its
// first frame, so the campaign stops right after a rendered line.
type cancelOnWrite struct {
	bytes.Buffer
	cancel context.CancelFunc
}

func (w *cancelOnWrite) Write(p []byte) (int, error) {
	if w.cancel != nil {
		w.cancel()
	}
	return w.Buffer.Write(p)
}

// TestEarlyExitEndsProgressLine: a campaign that stops early —
// cancelled, or cut short by Checkpoint.Limit — still clears its
// progress line, so the caller's next message starts on a clean line.
func TestEarlyExitEndsProgressLine(t *testing.T) {
	k := kernels.NewGEMM(4, 5)
	cases := []struct {
		name   string
		c      Campaign
		cancel bool
		frame  string
		want   error
	}{
		{"uniform cancelled", Campaign{Faults: 20}, true, "MxM: 1/20 samples", exec.ErrInterrupted},
		{"stratified cancelled", Campaign{Faults: 40, Sampling: &Sampling{Round: 16, MinPerStratum: 1}},
			true, "MxM: round 1, 24/40 samples", exec.ErrInterrupted},
		{"uniform partial", Campaign{Faults: 20,
			Checkpoint: &exec.Checkpoint{Path: filepath.Join(t.TempDir(), "ck.jsonl"), Limit: 1}},
			false, "MxM: 1/20 samples", exec.ErrPartial},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			c.Kernel, c.Format, c.Seed, c.Workers = k, fp.Single, 3, 1
			w := &cancelOnWrite{}
			if tc.cancel {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				c.Context, w.cancel = ctx, cancel
			}
			telemetry.SetProgress(w)
			defer telemetry.SetProgress(nil)
			if _, err := c.Run(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			clear := "\r" + strings.Repeat(" ", len(tc.frame)) + "\r"
			if got, want := w.String(), "\r"+tc.frame+clear; got != want {
				t.Errorf("progress output %q, want %q", got, want)
			}
		})
	}
}

package main

import "testing"

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		// Two children running on different goroutines overlap in
		// [20, 40); their union covers [10, 50).
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},
		// A child that outlives its parent is clipped to it.
		{Name: "c", Start: 90, End: 120, Parent: 0},
		// A grandchild reduces its own parent only.
		{Name: "d", Start: 15, End: 25, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 10, 30, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	by := layerSelf(spans, func(s span) bool { return s.Name != "c" })
	if by["root"] != 50 || by["a"] != 20 || by["c"] != 0 {
		t.Errorf("layerSelf = %v", by)
	}
}

func TestSelfTimesNestedSumToRoot(t *testing.T) {
	// Without overlap the self times of a tree sum to the root's span.
	spans := []span{
		{Name: "sample", Start: 0, End: 50, Parent: -1},
		{Name: "inject.fault_draw", Start: 1, End: 3, Parent: 0},
		{Name: "inject.run_spec", Start: 3, End: 45, Parent: 0},
		{Name: "exec.journal_record", Start: 45, End: 49, Parent: 0},
	}
	var sum int64
	for _, v := range selfTimes(spans) {
		sum += v
	}
	if sum != 50 {
		t.Errorf("self times sum to %d, want 50", sum)
	}
}

func TestTracerRecordsParentsAndRuns(t *testing.T) {
	tr := newTracer()
	run := runID(tr)
	root := tr.begin("campaign", -1, run)
	child := tr.begin("sample", root, run)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Run != run || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
	if d := durations(s, "sample", run); len(d) != 1 || d[0] < 0 {
		t.Fatalf("durations = %v", d)
	}
}

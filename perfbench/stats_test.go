package main

import (
	"testing"

	"qurator/internal/telemetry"
)

func TestPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.50, false},
		{20, 0.50, true},
		{99, 0.90, false},
		{100, 0.90, true},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	// Every workload's open-loop phase yields enough windows and queries
	// for the bounded p90 at the benchmark's run length, and the count
	// workloads enough windows for the printed p99.
	const seconds = 30
	for _, w := range workloads {
		open := float64(seconds) * openShare
		ops := w.rate * open
		windows := ops / float64(w.count)
		if e := w.event; e != nil {
			// One window per slide, plus the superseding re-fires of
			// every window a late re-send lands in.
			windows = ops/float64(e.slideMs/e.spacingMs) + ops/float64(e.lateEvery)*float64(e.windowMs/e.slideMs)
		}
		windows *= float64(w.streams * len(w.views))
		if !tailSupported(int(windows), 0.90) {
			t.Errorf("%s: %.0f windows in the open-loop phase cannot support p90", w.name, windows)
		}
		if w.event == nil && !tailSupported(int(windows), 0.99) {
			t.Errorf("%s: %.0f windows in the open-loop phase cannot support p99", w.name, windows)
		}
		if w.queryRate > 0 && !tailSupported(int(w.queryRate*open), 0.90) {
			t.Errorf("%s: %d queries cannot support p90", w.name, int(w.queryRate*open))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 40}, // overlap: together [10,40) = 30
		{90, 120}, // clipped to the parent: 10
		{-5, 5},   // clipped: 5
		{50, 50},  // empty
	}
	if got := selfTime(parent, children); got != 55 {
		t.Errorf("self time = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{-10, 200}}); got != 0 {
		t.Errorf("self time under a covering child = %d, want 0", got)
	}
}

func TestUncoveredSumsPerSpan(t *testing.T) {
	spans := []interval{{0, 10}, {5, 15}}
	cover := []interval{{2, 8}, {12, 20}}
	// [0,10) minus [2,8) = 4; [5,15) minus [5,8) and [12,15) = 4.
	if got := uncovered(spans, cover); got != 8 {
		t.Errorf("uncovered = %d, want 8", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	b := []telemetry.BucketCount{{UpperBound: 1, Count: 0}, {UpperBound: 5, Count: 50}, {UpperBound: 10, Count: 100}}
	if got := histQuantile(b, 100, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := histQuantile(b, 100, 0.75); got != 7.5 {
		t.Errorf("p75 = %v, want 7.5", got)
	}
	if got := histQuantile(b, 120, 0.99); got != 10 {
		t.Errorf("p99 in the +Inf bucket = %v, want the last bound 10", got)
	}
}

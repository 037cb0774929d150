package stream

import (
	"testing"
	"time"

	"qurator/internal/ontology"
)

// TestNormaliseDefaults pins the defaults normalise fills in: a count
// window slides by its own width (tumbling) and runs on one worker, an
// event-time window's slide defaults to its duration and leaves the
// count window unset. A negative or over-cap parallelism is refused.
func TestNormaliseDefaults(t *testing.T) {
	got, err := normalise(Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Parallelism != 1 || got.Slide != 4 {
		t.Errorf("normalised config = %+v", got)
	}
	for _, p := range []int{-3, maxParallelism + 1} {
		if _, err := normalise(Config{Window: 4, Parallelism: p}); err == nil {
			t.Errorf("parallelism %d accepted", p)
		}
	}
	if got, err := normalise(Config{Window: 4, Parallelism: maxParallelism}); err != nil || got.Parallelism != maxParallelism {
		t.Errorf("parallelism at the cap: %+v, %v", got, err)
	}
	got, err = normalise(Config{EventTimeKey: ontology.ObservedAt, WindowDuration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got.SlideDuration != time.Second || got.Window != 0 {
		t.Errorf("normalised event-time config = %+v", got)
	}
}

// TestNormaliseBoundsSpans: a window, gap, out-of-order bound or lateness
// past 2⁶⁰ (ns, or items for a count window) is refused, so no clock plus
// span overflows; one at the bound is accepted.
func TestNormaliseBoundsSpans(t *testing.T) {
	et := func(cfg Config) Config { cfg.EventTimeKey = ontology.ObservedAt; return cfg }
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{Window: maxSpan}, true},
		{Config{Window: maxSpan + 1}, false},
		{et(Config{WindowDuration: maxSpan, MaxOutOfOrder: maxSpan, AllowedLateness: maxSpan}), true},
		{et(Config{SessionGap: maxSpan}), true},
		{et(Config{WindowDuration: maxSpan + 1}), false},
		{et(Config{SessionGap: maxSpan + 1}), false},
		{et(Config{WindowDuration: time.Second, MaxOutOfOrder: maxSpan + 1}), false},
		{et(Config{WindowDuration: time.Second, AllowedLateness: maxSpan + 1}), false},
	} {
		if _, err := normalise(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("normalise(%+v) = %v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
}

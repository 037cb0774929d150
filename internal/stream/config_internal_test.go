package stream

import (
	"testing"
	"time"

	"qurator/internal/ontology"
)

// TestNormaliseDefaults pins the defaults normalise fills in: a count
// window slides by its own width (tumbling) and runs on one worker, an
// event-time window's slide defaults to its duration and leaves the
// count window unset.
func TestNormaliseDefaults(t *testing.T) {
	got, err := normalise(Config{Window: 4, Parallelism: -3})
	if err != nil {
		t.Fatal(err)
	}
	if got.Parallelism != 1 || got.Slide != 4 {
		t.Errorf("normalised config = %+v", got)
	}
	got, err = normalise(Config{EventTimeKey: ontology.ObservedAt, WindowDuration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got.SlideDuration != time.Second || got.Window != 0 {
		t.Errorf("normalised event-time config = %+v", got)
	}
}

package main

import (
	"testing"
	"time"
)

// TestEventTimeRecordSchema runs the event-time experiment at a reduced
// scale and checks BENCH_eventtime.json is well-formed: the equivalence
// tripwire holds, the straggler superseded its window, the drift alert
// landed within the bound, the drift metrics are in the snapshot, and
// the on-disk record round-trips strictly.
func TestEventTimeRecordSchema(t *testing.T) {
	const items, window = 32, 4
	record, err := measureEventTime(items, window, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if record.Experiment != "eventtime" || record.Params["items"] != items || record.Params["count_window"] != window {
		t.Fatalf("header = %q/%v/%v", record.Experiment, record.Params["items"], record.Params["count_window"])
	}
	if !passed(t, record, "equivalent") {
		t.Fatal("event-time windows diverged from count windows on an in-order feed")
	}
	if w := metricOf(t, record, "windows").Value; w != items/window {
		t.Errorf("windows = %v, want %d", w, items/window)
	}
	if s := metricOf(t, record, "superseded_emissions").Value; s < 1 || !passed(t, record, "straggler_superseded") {
		t.Fatalf("late data: superseded=%v, want a superseding re-emission deciding the straggler", s)
	}
	if metricOf(t, record, "drift/alert_window").Value < 0 {
		t.Fatal("injected degradation raised no drift alert")
	}
	if lag := metricOf(t, record, "drift/lag_windows").Value; lag < 0 || lag > etMaxDriftLag || !passed(t, record, "drift_alert") {
		t.Errorf("drift lag = %v windows, want within [0, %d]", lag, etMaxDriftLag)
	}
	if !registryHas(record, "qurator_stream_drift_score") || !registryHas(record, "qurator_stream_drift_alerts_total") {
		t.Errorf("drift metrics missing from snapshot: score=%v alerts=%v",
			registryHas(record, "qurator_stream_drift_score"), registryHas(record, "qurator_stream_drift_alerts_total"))
	}

	roundTrip(t, record)
}

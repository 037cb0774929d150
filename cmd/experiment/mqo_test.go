package main

import (
	"testing"
	"time"
)

// TestMQORecordSchema runs the MQO experiment over a scaled-down fleet
// and checks the BENCH_mqo.json record is well-formed: the bit-identity
// tripwire holds, the merged plan deduplicates what the fleet shape
// predicts, the dedup metrics are present, and the on-disk record
// round-trips strictly. The ≤0.35 cost-ratio ceiling is the full-size
// run's ratio check; at test scale we only require the merged fleet to
// be strictly cheaper.
func TestMQORecordSchema(t *testing.T) {
	const views, families, items = 12, 4, 8
	record, err := measureMQO(views, families, items, time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !passed(t, record, "equivalent") {
		t.Fatal("merged outputs diverged from independent enactment")
	}
	if record.Experiment != "mqo" || record.Params["views"] != views || record.Params["qa_families"] != families {
		t.Fatalf("header = %q/%v/%v", record.Experiment, record.Params["views"], record.Params["qa_families"])
	}
	// Plan shape: per view 1 annotator + 1 enrichment + 4 shared QAs + 1
	// private QA = 7 quality processors; merged = 1 + 1 + families shared
	// QAs + views private QAs.
	wantSaved := 7*views - (2 + families + views)
	if got := metricOf(t, record, "saved_per_enactment").Value; got != float64(wantSaved) {
		t.Errorf("saved_per_enactment = %v, want %d", got, wantSaved)
	}
	// Shared prefixes: annotator + enrichment + every family QA (each
	// family serves ≥ 2 views at this fleet shape).
	if got := metricOf(t, record, "shared_prefixes").Value; got != 2+families {
		t.Errorf("shared_prefixes = %v, want %d", got, 2+families)
	}
	merged, independent := metricOf(t, record, "merged/best_ms").Value, metricOf(t, record, "independent/best_ms").Value
	if merged <= 0 || independent <= 0 {
		t.Fatalf("timings = %f / %f", merged, independent)
	}
	if ratio := metricOf(t, record, "ratio").Value; ratio >= 1 {
		t.Errorf("ratio = %.3f, want < 1 even at test scale", ratio)
	}
	if !registryHas(record, "qurator_mqo_shared_prefixes") || !registryHas(record, "qurator_mqo_invocations_saved_total") {
		t.Errorf("MQO metrics missing from snapshot: gauge=%v counter=%v",
			registryHas(record, "qurator_mqo_shared_prefixes"), registryHas(record, "qurator_mqo_invocations_saved_total"))
	}

	roundTrip(t, record)
}

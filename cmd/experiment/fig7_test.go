package main

import (
	"testing"

	"qurator/internal/ispider"
)

// TestFig7RecordSchema checks the BENCH_fig7.json record of a small
// Figure-7 run: the phases and headline numbers are present and sane,
// the processor metrics the run accumulated are in the snapshot, and
// the record round-trips strictly.
func TestFig7RecordSchema(t *testing.T) {
	world := smallWorld(t)
	res, timings, err := ispider.RunFigure7Timed(world)
	if err != nil {
		t.Fatal(err)
	}
	record := figure7Record(world, res, timings)
	if record.Experiment != "fig7" {
		t.Fatalf("experiment = %q", record.Experiment)
	}
	for _, phase := range []string{"baseline", "quality_enactment", "ranking"} {
		if m := metricOf(t, record, phase+"/wall_ms"); m.Value < 0 || m.Unit != "ms" {
			t.Errorf("phase %s = %+v", phase, m)
		}
	}
	original, kept := metricOf(t, record, "identifications/original").Value, metricOf(t, record, "identifications/kept").Value
	if original == 0 || kept > original {
		t.Errorf("identifications kept %v of %v", kept, original)
	}
	if f, o := metricOf(t, record, "term_occurrences/filtered").Value, metricOf(t, record, "term_occurrences/original").Value; f > o {
		t.Errorf("term occurrences filtered %v > original %v", f, o)
	}
	if len(record.Registry) == 0 {
		t.Error("Figure-7 record carries no process metrics")
	}

	back := roundTrip(t, record)
	if _, ok := back.Params["world"]; !ok {
		t.Error("world parameters lost in the round-trip")
	}
}

package main

import "testing"

// TestCubeRecordSchema runs the cube experiment over a small observation
// set and checks the BENCH_cube.json record is well-formed: the
// equivalence tripwire holds, every slice shape selected something,
// timings are sane, and the on-disk record round-trips strictly. It
// asserts only a conservative speedup floor (>1x over a tiny set) — the
// ≥10x headline claim is the full-size run's min_speedup check.
func TestCubeRecordSchema(t *testing.T) {
	record, err := measureCube(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !passed(t, record, "equivalent") {
		t.Fatal("cube slices diverged from the SPARQL scan aggregates")
	}
	if record.Experiment != "cube" {
		t.Fatalf("experiment = %q", record.Experiment)
	}
	if triples := metricOf(t, record, "triples").Value; record.Params["observations"] != 5000 || triples < 5000 {
		t.Fatalf("observations = %v, triples = %v", record.Params["observations"], triples)
	}
	slices := []string{"metric-all-time", "metric-range", "cell-all-time", "cell-range"}
	if n := len(record.Metrics); n != 1+4*len(slices)+2 {
		t.Fatalf("%d metrics, want triples, 4 per slice shape for 4 shapes, and 2 summaries", n)
	}
	for _, name := range slices {
		if metricOf(t, record, name+"/count").Value == 0 {
			t.Errorf("slice %s selected nothing — the world no longer exercises it", name)
		}
		if metricOf(t, record, name+"/cube_us").Value < 0 || metricOf(t, record, name+"/sparql_us").Value < 0 {
			t.Errorf("slice %s: negative wall-clock", name)
		}
		if s := metricOf(t, record, name+"/speedup").Value; s <= 0 {
			t.Errorf("slice %s: speedup = %f", name, s)
		}
	}
	// Conservative floor: reading a rollup must not be slower than
	// scanning the raw observation graph, even at small scale.
	if s := metricOf(t, record, "min_speedup").Value; s < 1 {
		t.Errorf("min speedup = %.2f, want >= 1", s)
	}
	if hasCheck(record, "min_speedup") {
		t.Error("the 10x speedup check is for the full-size run only")
	}

	roundTrip(t, record)
}

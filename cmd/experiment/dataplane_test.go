package main

import (
	"testing"

	"qurator/internal/ispider"
)

func smallWorld(t *testing.T) *ispider.World {
	t.Helper()
	params := ispider.DefaultWorldParams()
	params.SpotCount = 4
	params.DBSize = 40
	world, err := ispider.BuildWorld(params)
	if err != nil {
		t.Fatal(err)
	}
	return world
}

// TestDataPlaneRecordSchema runs the grid over a small world and checks
// the BENCH_dataplane.json record is well-formed: every metric the bench
// trajectory consumes is present, no unknown fields sneak in, and the
// equivalence tripwire reports bit-identical outputs.
func TestDataPlaneRecordSchema(t *testing.T) {
	world := smallWorld(t)
	const repeats = 2
	record, err := measureDataPlane(world, repeats)
	if err != nil {
		t.Fatal(err)
	}
	if !passed(t, record, "equivalent") {
		t.Fatal("sharded/cached configurations diverged from serial enactment")
	}
	if record.Experiment != "dataplane" {
		t.Fatalf("experiment = %q", record.Experiment)
	}
	grid := dataPlaneGrid()
	var sawSerial, sawSharded, sawCached bool
	serialAccepted := metricOf(t, record, grid[0].Name+"/accepted").Value
	for _, cfg := range grid {
		best, mean := metricOf(t, record, cfg.Name+"/best_ms"), metricOf(t, record, cfg.Name+"/mean_ms")
		if best.Samples != repeats || mean.Samples != repeats {
			t.Errorf("config %s: %d/%d samples, want %d", cfg.Name, best.Samples, mean.Samples, repeats)
		}
		// The best run is the fastest, so a non-negative best means no
		// run's wall-clock was negative.
		if best.Value < 0 {
			t.Errorf("config %s: negative wall-clock %f", cfg.Name, best.Value)
		}
		if best.Value > mean.Value {
			t.Errorf("config %s: best %f > mean %f", cfg.Name, best.Value, mean.Value)
		}
		if a := metricOf(t, record, cfg.Name+"/accepted").Value; a != serialAccepted {
			t.Errorf("config %s accepted %v items, serial accepted %v", cfg.Name, a, serialAccepted)
		}
		switch {
		case cfg.ShardSize == 0 && !cfg.Cache:
			sawSerial = true
		case cfg.Cache:
			sawCached = true
			if metricOf(t, record, cfg.Name+"/cache_hits").Value == 0 {
				t.Errorf("config %s: repeated runs produced no cache hits", cfg.Name)
			}
		case cfg.ShardSize > 1:
			sawSharded = true
		}
		if hasMetric(record, cfg.Name+"/cache_hits") != cfg.Cache {
			t.Errorf("config %s: cache metrics present = %v, cache = %v", cfg.Name, !cfg.Cache, cfg.Cache)
		}
	}
	if !sawSerial || !sawSharded || !sawCached {
		t.Fatalf("grid must cover serial, sharded and cached configurations: %+v", grid)
	}

	roundTrip(t, record)
}

package main

import "testing"

// TestSPARQLRecordSchema runs the query experiment over a small provenance
// log and checks the BENCH_sparql.json record is well-formed: the
// equivalence tripwire holds, every query ran, timings are sane, and the
// on-disk record round-trips strictly. It asserts only a conservative
// speedup floor (>1x minimum over a tiny log) — the ≥10x headline claim is
// BenchmarkSPARQLProvenance's job, over a 100k-run log.
func TestSPARQLRecordSchema(t *testing.T) {
	record, err := measureSPARQL(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !passed(t, record, "equivalent") {
		t.Fatal("streaming evaluator diverged from the materializing baseline")
	}
	if record.Experiment != "sparql" {
		t.Fatalf("experiment = %q", record.Experiment)
	}
	if triples := metricOf(t, record, "triples").Value; record.Params["runs"] != 1000 || triples < 1000 {
		t.Fatalf("runs = %v, triples = %v", record.Params["runs"], triples)
	}
	queries := sparqlQueries()
	if n := len(record.Metrics); n != 1+5*len(queries)+2 {
		t.Fatalf("%d metrics, want triples, 5 per query for %d queries, and 2 summaries", n, len(queries))
	}
	for _, q := range queries {
		if metricOf(t, record, q.name+"/rows").Value == 0 {
			t.Errorf("query %s returned no rows — the world no longer exercises it", q.name)
		}
		for _, field := range []string{"/clone_ms", "/snapshot_ms", "/stream_ms"} {
			if metricOf(t, record, q.name+field).Value < 0 {
				t.Errorf("query %s: negative wall-clock", q.name)
			}
		}
		if s := metricOf(t, record, q.name+"/speedup").Value; s <= 0 {
			t.Errorf("query %s: speedup = %f", q.name, s)
		}
	}
	// Conservative floor: even on a small log, skipping the deep copy and
	// planning by cardinality must not be slower than clone+materialize.
	if s := metricOf(t, record, "min_speedup").Value; s < 1 {
		t.Errorf("min speedup = %.2f, want >= 1", s)
	}

	roundTrip(t, record)
}

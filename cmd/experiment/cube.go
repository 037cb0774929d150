package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"qurator/internal/qcube"
	"qurator/internal/sparql"
	"qurator/internal/telemetry"
)

// The cube experiment measures the daQ quality cube's pre-aggregated
// rollups against the representation they summarise: raw daq:Observation
// facts in an RDF graph sliced by a SPARQL scan, with the aggregate
// folded caller-side. An equivalence check asserts that every cube
// slice matches the scan's count/sum/min/max; at full size a second check
// holds every slice shape's speedup to at least cubeMinSpeedup.

// cubeObs is the observation count of the full-size run, and
// cubeMinSpeedup the speedup every slice shape must reach over it.
const (
	cubeObs        = 100_000
	cubeMinSpeedup = 10
)

var cubeT0 = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

// genCubeObservations emits n quality observations across a
// metrics × sources grid, spread over a day — the shape a long-lived
// Qurator deployment accumulates from annotation traffic.
func genCubeObservations(n, nMetrics, nSources int, spread time.Duration, seed int64) []qcube.Observation {
	rng := rand.New(rand.NewSource(seed))
	obs := make([]qcube.Observation, n)
	for i := range obs {
		obs[i] = qcube.Observation{
			Metric:     fmt.Sprintf("http://qurator.org/iq#Metric%d", rng.Intn(nMetrics)),
			ComputedOn: fmt.Sprintf("urn:lsid:qurator:source:%d", rng.Intn(nSources)),
			Agent:      "http://qurator.org/iq#ImprintAnnotation",
			Value:      rng.Float64(),
			At:         cubeT0.Add(time.Duration(rng.Int63n(int64(spread)))),
		}
	}
	return obs
}

// scanAgg folds a SPARQL row set into count/sum/min/max — the caller-side
// aggregation the cube's rollups make unnecessary.
func scanAgg(res *sparql.Result, q qcube.SliceQuery) (qcube.Agg, error) {
	var a qcube.Agg
	for _, b := range res.Bindings {
		o, err := qcube.FromTerms(q.Metric, q.Source, b["value"], b["ts"])
		if err != nil {
			return a, err
		}
		if a.Count == 0 || o.Value < a.Min {
			a.Min = o.Value
		}
		if a.Count == 0 || o.Value > a.Max {
			a.Max = o.Value
		}
		a.Count++
		a.Sum += o.Value
	}
	return a, nil
}

func cubeAggEqual(a, b qcube.Agg) bool {
	const eps = 1e-9
	return a.Count == b.Count &&
		math.Abs(a.Sum-b.Sum) < eps*(1+math.Abs(a.Sum)) &&
		math.Abs(a.Min-b.Min) < eps && math.Abs(a.Max-b.Max) < eps
}

func measureCube(n, repeats int) (*record, error) {
	if repeats < 1 {
		repeats = 1
	}
	const window = time.Minute
	obs := genCubeObservations(n, 4, 20, 24*time.Hour, 2006)
	cube := qcube.New(window)
	for _, o := range obs {
		cube.Observe(o)
	}
	graph, err := qcube.ObservationsToGraph(obs)
	if err != nil {
		return nil, err
	}
	rec := newRecord("cube", map[string]any{
		"observations": n, "window_ms": window.Milliseconds(), "repeats": repeats,
	})
	rec.metric("triples", "count", float64(graph.Len()), 1)

	// Window-aligned bounds make the cube's bucket-granular range and the
	// scan's raw-timestamp FILTER select identical observations.
	metric := obs[0].Metric
	source := obs[0].ComputedOn
	queries := []struct {
		name string
		q    qcube.SliceQuery
	}{
		{"metric-all-time", qcube.SliceQuery{Metric: metric}},
		{"metric-range", qcube.SliceQuery{
			Metric: metric,
			From:   cubeT0.Add(2 * time.Hour).Truncate(window),
			To:     cubeT0.Add(20 * time.Hour).Truncate(window),
		}},
		{"cell-all-time", qcube.SliceQuery{Metric: metric, Source: source}},
		{"cell-range", qcube.SliceQuery{
			Metric: metric, Source: source,
			From: cubeT0.Add(2 * time.Hour).Truncate(window),
			To:   cubeT0.Add(20 * time.Hour).Truncate(window),
		}},
	}

	equivalent := true
	var speedups []float64
	for _, qc := range queries {
		var slice qcube.SliceResult
		cubeMS, err := timeBest(repeats, func() error {
			slice = cube.Slice(qc.q)
			return nil
		})
		if err != nil {
			return nil, err
		}

		query := qcube.SliceSPARQL(qc.q)
		var scan qcube.Agg
		sparqlMS, err := timeBest(repeats, func() error {
			res, err := sparql.Exec(graph, query)
			if err != nil {
				return err
			}
			scan, err = scanAgg(res, qc.q)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", qc.name, err)
		}

		if !cubeAggEqual(slice.Agg, scan) {
			equivalent = false
		}
		if slice.Agg.Count == 0 {
			return nil, fmt.Errorf("query %s: degenerate slice selected nothing", qc.name)
		}
		// The rollup is an O(windows) merge that touches no graph; the
		// baseline pattern-matches the full graph and folds the rows.
		cubeUS, sparqlUS := cubeMS*1000, sparqlMS*1000 // timeBest reports ms
		speedup := 0.0
		if cubeUS > 0 {
			speedup = sparqlUS / cubeUS
		}
		speedups = append(speedups, speedup)
		rec.metric(qc.name+"/count", "observations", float64(slice.Agg.Count), 1)
		rec.metric(qc.name+"/cube_us", "us", cubeUS, repeats)
		rec.metric(qc.name+"/sparql_us", "us", sparqlUS, repeats)
		rec.metric(qc.name+"/speedup", "x", speedup, repeats)
	}
	minSpeedup := speedupSummary(rec, speedups)
	rec.check("equivalent", equivalent, "every cube slice equals the SPARQL scan's count/sum/min/max")
	if n >= cubeObs {
		rec.check("min_speedup", minSpeedup >= cubeMinSpeedup,
			"min speedup %.1fx, want >= %dx over %d observations", minSpeedup, cubeMinSpeedup, n)
	}
	rec.Registry = telemetry.Default.Snapshot()
	return rec, nil
}

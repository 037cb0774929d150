package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"qurator/internal/ontology"
	"qurator/internal/provenance"
	"qurator/internal/rdf"
	"qurator/internal/sparql"
	"qurator/internal/telemetry"
)

// The SPARQL experiment measures the metadata-plane query engine against
// the seed implementation it replaced: a deep graph copy per query (the
// old provenance.Log.Query behaviour) feeding the materializing
// evaluator, versus an O(1) copy-on-write snapshot feeding the streaming
// cardinality-planned evaluator. An equivalence tripwire asserts both
// engines return identical sorted rows on every query.

// sparqlQuery is one query of the suite.
type sparqlQuery struct {
	name, query string
}

// buildProvenanceWorld records n synthetic runs in the paper's
// exploration-loop shape: a handful of views re-run with evolving
// conditions, each run carrying output and condition nodes.
func buildProvenanceWorld(n int) *provenance.Log {
	l := provenance.NewLog()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		// The log has no durable store, so Record cannot fail.
		_, _ = l.Record(provenance.Record{
			View:      fmt.Sprintf("view-%d", i%7),
			Started:   base.Add(time.Duration(i) * time.Second),
			Duration:  time.Duration(1+i%250) * time.Millisecond,
			InputSize: 50 + i%400,
			Outputs: map[string]int{
				"accept": i % 40,
				"review": i % 11,
			},
			Conditions: map[string]string{
				"accept": fmt.Sprintf("ScoreClass in q:high; threshold=%d", i%5),
			},
		})
	}
	return l
}

func sparqlQueries() []sparqlQuery {
	q := func(local string) string { return ontology.QuratorNS + local }
	return []sparqlQuery{
		{
			name: "runs-of-view",
			query: fmt.Sprintf(
				`SELECT ?run ?n WHERE { ?run <%s> "view-3" . ?run <%s> ?n . }`,
				q("usedView"), q("inputSize")),
		},
		{
			name: "outputs-join",
			query: fmt.Sprintf(
				`SELECT ?run ?name ?size WHERE { ?run <%s> "view-1" . ?run <%s> ?o . ?o <%s> ?name . ?o <%s> ?size . FILTER (?size > 30) }`,
				q("usedView"), q("producedOutput"), q("outputName"), q("outputSize")),
		},
		{
			name: "slow-runs",
			query: fmt.Sprintf(
				`SELECT DISTINCT ?run WHERE { ?run <%s> ?d . FILTER (?d > 240) } ORDER BY ?run LIMIT 50`,
				q("durationMillis")),
		},
		{
			name: "condition-provenance",
			query: fmt.Sprintf(
				`SELECT ?run ?expr WHERE { ?run <%s> ?c . ?c <%s> "accept" . ?c <%s> ?expr . ?run <%s> "view-2" . }`,
				q("usedCondition"), q("conditionAction"), q("conditionExpression"), q("usedView")),
		},
	}
}

// deepCopy replicates the seed's Clone: a fresh graph populated triple by
// triple from a sorted dump — the per-query cost the snapshot removed.
func deepCopy(g *rdf.Graph) *rdf.Graph {
	out := rdf.NewGraph()
	for _, t := range g.Triples() {
		out.MustAdd(t)
	}
	return out
}

func timeBest(repeats int, f func() error) (float64, error) {
	best := -1.0
	for r := 0; r < repeats; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if best < 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

func rowKeys(res *sparql.Result) []string {
	out := make([]string, len(res.Bindings))
	var key []byte
	for i, b := range res.Bindings {
		key = key[:0]
		for _, v := range res.Vars {
			key = b[v].AppendKey(key)
			key = append(key, 0)
		}
		out[i] = string(key)
	}
	sort.Strings(out)
	return out
}

// measureSPARQL times each query three ways — the seed path (deep copy
// + materializing evaluator), an O(1) snapshot + materializing evaluator
// (the snapshot win alone), and the production path (snapshot +
// streaming evaluator) — and reports speedup = clone / stream.
func measureSPARQL(runs, repeats int) (*record, error) {
	if repeats < 1 {
		repeats = 1
	}
	log := buildProvenanceWorld(runs)
	graph := log.Graph()
	rec := newRecord("sparql", map[string]any{"runs": runs, "repeats": repeats})
	rec.metric("triples", "count", float64(graph.Len()), 1)
	equivalent := true
	var speedups []float64
	for _, qr := range sparqlQueries() {
		var cloneRes, streamRes *sparql.Result
		var err error

		cloneMS, err := timeBest(repeats, func() error {
			g := deepCopy(graph)
			cloneRes, err = sparql.ExecBaseline(g.Snapshot(), qr.query)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("query %s (clone): %w", qr.name, err)
		}
		snapshotMS, err := timeBest(repeats, func() error {
			_, err := sparql.ExecBaseline(log.Snapshot(), qr.query)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("query %s (snapshot): %w", qr.name, err)
		}
		streamMS, err := timeBest(repeats, func() error {
			streamRes, err = log.Query(qr.query)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("query %s (stream): %w", qr.name, err)
		}

		// Equivalence tripwire: the engines must agree row for row.
		if !slices.Equal(rowKeys(cloneRes), rowKeys(streamRes)) {
			equivalent = false
		}
		speedup := 0.0
		if streamMS > 0 {
			speedup = cloneMS / streamMS
		}
		speedups = append(speedups, speedup)
		rec.metric(qr.name+"/rows", "rows", float64(len(streamRes.Bindings)), 1)
		rec.metric(qr.name+"/clone_ms", "ms", cloneMS, repeats)
		rec.metric(qr.name+"/snapshot_ms", "ms", snapshotMS, repeats)
		rec.metric(qr.name+"/stream_ms", "ms", streamMS, repeats)
		rec.metric(qr.name+"/speedup", "x", speedup, repeats)
	}
	speedupSummary(rec, speedups)
	rec.check("equivalent", equivalent, "streaming evaluator returns the materializing baseline's rows on every query")
	rec.Registry = telemetry.Default.Snapshot()
	return rec, nil
}

// speedupSummary records the minimum and mean of per-row speedups and
// returns the minimum.
func speedupSummary(rec *record, speedups []float64) float64 {
	lo, sum := slices.Min(speedups), 0.0
	for _, s := range speedups {
		sum += s
	}
	rec.metric("min_speedup", "x", lo, len(speedups))
	rec.metric("mean_speedup", "x", sum/float64(len(speedups)), len(speedups))
	return lo
}

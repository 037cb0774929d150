package qurator

// This file is the benchmark harness for the paper's evaluation artifacts
// (see DESIGN.md's experiment index): one benchmark per figure plus the
// ablations. Absolute numbers depend on the synthetic substrate; the
// shapes they demonstrate (who wins, what reduces what) are asserted by
// the test suites and recorded in EXPERIMENTS.md.
//
// Run with:
//
//	go test -bench=. -benchmem .

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ispider"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/provenance"
	"qurator/internal/qcache"
	"qurator/internal/rdf"
	"qurator/internal/sparql"
	"qurator/internal/stream"
	"qurator/internal/telemetry"
)

// benchWorld builds the default (paper-scale) world once per test binary.
var benchWorld = sync.OnceValues(func() (*ispider.World, error) {
	return ispider.BuildWorld(ispider.DefaultWorldParams())
})

func mustWorld(b *testing.B) *ispider.World {
	b.Helper()
	w, err := benchWorld()
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkFigure1HostWorkflow regenerates Figure 1: the plain ISPIDER
// analysis (Pedro → Imprint → GOA) with no quality processing.
func BenchmarkFigure1HostWorkflow(b *testing.B) {
	w := mustWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	var out *ispider.RunOutput
	for i := 0; i < b.N; i++ {
		var err error
		out, err = ispider.RunBaseline(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := 0
	for _, n := range out.TermCounts {
		total += n
	}
	b.ReportMetric(float64(len(out.Entries)), "identifications")
	b.ReportMetric(float64(total), "GO-occurrences")
}

// BenchmarkFigure3QualityProcess regenerates the Figure 3 pattern: the
// full annotate → enrich → assert → consolidate → act process of the §5.1
// view, compiled once and enacted over a 100-item set.
func BenchmarkFigure3QualityProcess(b *testing.B) {
	f := New()
	if err := f.DeployStandardLibrary(); err != nil {
		b.Fatal(err)
	}
	err := f.DeployAnnotator("ImprintOutputAnnotator", ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Types:    []rdf.Term{ontology.HitRatio, ontology.Coverage, ontology.Masses, ontology.PeptidesCount},
		Fn: func(items []evidence.Item, repo annotstore.Store) error {
			for i, it := range items {
				v := float64(i%10) / 10
				for _, a := range []annotstore.Annotation{
					{Item: it, Type: ontology.HitRatio, Value: evidence.Float(v)},
					{Item: it, Type: ontology.Coverage, Value: evidence.Float(v)},
					{Item: it, Type: ontology.Masses, Value: evidence.Int(12)},
					{Item: it, Type: ontology.PeptidesCount, Value: evidence.Int(6)},
				} {
					if err := repo.Put(a); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := f.CompileView([]byte(PaperViewXML))
	if err != nil {
		b.Fatal(err)
	}
	items := make([]evidence.Item, 100)
	for i := range items {
		items[i] = rdf.IRI(fmt.Sprintf("urn:lsid:bench.org:item:%d", i))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Repositories.ClearCaches()
		if _, err := compiled.Run(ctx, items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6CompileEmbed regenerates Figure 6: compiling the §5.1
// view and embedding it into the host workflow (the static targeting
// step, not the enactment).
func BenchmarkFigure6CompileEmbed(b *testing.B) {
	w := mustWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ispider.BuildPipeline(w, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6EmbeddedEnactment enacts the embedded workflow — the
// quality overhead added to one full analysis run.
func BenchmarkFigure6EmbeddedEnactment(b *testing.B) {
	w := mustWorld(b)
	p, err := ispider.BuildPipeline(w, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Significance regenerates the Figure 7 experiment:
// baseline run + quality-filtered run + ratio ranking.
func BenchmarkFigure7Significance(b *testing.B) {
	w := mustWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res *ispider.Figure7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = ispider.RunFigure7Timed(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.TotalOriginal), "occ-original")
	b.ReportMetric(float64(res.TotalFiltered), "occ-filtered")
	b.ReportMetric(res.RankDisplacement, "rank-shift")
}

// BenchmarkAblationAnnotationCaching is ablation A1: the §4 trade-off
// between computing annotations on the fly each run and reading
// pre-computed annotations from a persistent repository.
func BenchmarkAblationAnnotationCaching(b *testing.B) {
	items := make([]evidence.Item, 200)
	for i := range items {
		items[i] = rdf.IRI(fmt.Sprintf("urn:lsid:bench.org:item:%d", i))
	}
	annotate := func(repo annotstore.Store) error {
		for i, it := range items {
			v := float64(i%100) / 100
			if err := repo.Put(annotstore.Annotation{Item: it, Type: ontology.HitRatio, Value: evidence.Float(v)}); err != nil {
				return err
			}
			if err := repo.Put(annotstore.Annotation{Item: it, Type: ontology.Coverage, Value: evidence.Float(v)}); err != nil {
				return err
			}
		}
		return nil
	}
	enrich := func(repo annotstore.Store) error {
		m := evidence.NewMap(items...)
		de := &ops.DataEnrichment{Sources: []ops.EvidenceSource{
			{Type: ontology.HitRatio, Repository: repo},
			{Type: ontology.Coverage, Repository: repo},
		}}
		_, err := de.Enrich(m)
		return err
	}

	b.Run("on-the-fly", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache := annotstore.New("cache", false)
			if err := annotate(cache); err != nil {
				b.Fatal(err)
			}
			if err := enrich(cache); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		persistent := annotstore.New("default", true)
		if err := annotate(persistent); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enrich(persistent); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationQAChoice is ablation A2: alternative QAs over the same
// evidence, with precision/recall reported as metrics.
func BenchmarkAblationQAChoice(b *testing.B) {
	w := mustWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rows []ispider.PRStats
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = ispider.RunQAComparison(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Name == "classifier class=high" {
			b.ReportMetric(r.Precision, "precision-high")
			b.ReportMetric(r.Recall, "recall-high")
		}
	}
}

// BenchmarkAblationThresholdSweep is ablation A3: the condition sweep.
func BenchmarkAblationThresholdSweep(b *testing.B) {
	w := mustWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ispider.RunThresholdSweep(w, []int{1, 3, 5, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLearnedQA is ablation A4: training the stump-tree QA
// on half the spots and evaluating it against the hand-built classifier
// on the other half (the paper's future-work item (ii) exercised).
func BenchmarkAblationLearnedQA(b *testing.B) {
	w := mustWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res *ispider.LearnedQAResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = ispider.RunLearnedQA(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Learned.Precision, "learned-precision")
	b.ReportMetric(res.HandBuilt.Precision, "hand-precision")
}

// BenchmarkAblationContamination is ablation A5: the quality view's
// precision/recall across increasing contamination levels.
func BenchmarkAblationContamination(b *testing.B) {
	params := ispider.DefaultWorldParams()
	params.DBSize, params.SpotCount = 60, 6
	b.ReportAllocs()
	b.ResetTimer()
	var points []ispider.ContaminationPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = ispider.RunContaminationSweep(params, []int{0, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	last := points[len(points)-1]
	b.ReportMetric(last.Filtered.Precision, "precision-heavy")
	b.ReportMetric(last.Filtered.Recall, "recall-heavy")
}

// BenchmarkStreamEnactment measures continuous enactment throughput
// (internal/stream): items flow through windowed quality processing and
// the items/s metric shows how window size and worker-pool parallelism
// trade latency against throughput.
func BenchmarkStreamEnactment(b *testing.B) {
	for _, window := range []int{64, 256} {
		for _, par := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("window=%d/parallelism=%d", window, par), func(b *testing.B) {
				f := New()
				if err := f.DeployStandardLibrary(); err != nil {
					b.Fatal(err)
				}
				compiled, err := f.CompileViewForStream([]byte(PaperViewXML))
				if err != nil {
					b.Fatal(err)
				}
				e, err := stream.New(compiled, stream.Config{Window: window, Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				in := make(chan stream.Item, par)
				results := make(chan stream.WindowResult, par)
				done := make(chan error, 1)
				go func() { done <- e.Run(context.Background(), in, results) }()
				go func() {
					defer close(in)
					for i := 0; i < b.N; i++ {
						frac := 0.15 + 0.8*float64(i%window)/float64(window)
						in <- stream.Item{
							ID: rdf.IRI(fmt.Sprintf("urn:lsid:bench.org:stream:%d", i)),
							Evidence: map[evidence.Key]evidence.Value{
								ontology.HitRatio:      evidence.Float(frac),
								ontology.Coverage:      evidence.Float(frac),
								ontology.Masses:        evidence.Int(int64(10 + i%7)),
								ontology.PeptidesCount: evidence.Int(8),
							},
						}
					}
				}()
				decided := 0
				for r := range results {
					decided += len(r.Decisions)
				}
				if err := <-done; err != nil {
					b.Fatal(err)
				}
				if decided != b.N {
					b.Fatalf("decided %d of %d items", decided, b.N)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
			})
		}
	}
	// CI's bench smoke run doubles as the exposition check: after the
	// stream metrics have been exercised, the registry must still render
	// valid Prometheus text.
	var buf bytes.Buffer
	if err := telemetry.Default.WriteProm(&buf); err != nil {
		b.Fatalf("WriteProm: %v", err)
	}
	if err := telemetry.ValidateExposition(&buf); err != nil {
		b.Fatalf("/metrics exposition malformed: %v", err)
	}
}

// sparqlBenchLog builds the provenance log for the query-engine benchmark
// once per binary: 100k runs (10k under -short), ~14 triples per run, in
// the paper's exploration-loop shape.
var sparqlBenchLog = sync.OnceValue(func() *provenance.Log {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	l := provenance.NewLog()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		l.Record(provenance.Record{
			View:      fmt.Sprintf("view-%d", i%7),
			Started:   base.Add(time.Duration(i) * time.Second),
			Duration:  time.Duration(1+i%250) * time.Millisecond,
			InputSize: 50 + i%400,
			Outputs:   map[string]int{"accept": i % 40, "review": i % 11},
			Conditions: map[string]string{
				"accept": fmt.Sprintf("ScoreClass in q:high; threshold=%d", i%5),
			},
		})
	}
	return l
})

// BenchmarkSPARQLProvenance measures the metadata-plane query engine over
// a 100k-run provenance log (10k under -short). The clone-materialize
// sub-benchmark is the seed Log.Query path: a deep per-query copy of the
// graph feeding the materializing evaluator. The snapshot-stream
// sub-benchmark is the production path: an O(1) copy-on-write snapshot
// feeding the streaming, cardinality-planned evaluator. Compare ns/op —
// the acceptance bar is a ≥10x gap.
func BenchmarkSPARQLProvenance(b *testing.B) {
	log := sparqlBenchLog()
	graph := log.Graph()
	query := fmt.Sprintf(
		`SELECT ?run ?name ?size WHERE { ?run <%susedView> "view-3" . ?run <%sproducedOutput> ?o . ?o <%soutputName> ?name . ?o <%soutputSize> ?size . }`,
		ontology.QuratorNS, ontology.QuratorNS, ontology.QuratorNS, ontology.QuratorNS)

	want, err := log.Query(query)
	if err != nil {
		b.Fatal(err)
	}
	wantRows := len(want.Bindings)
	if wantRows == 0 {
		b.Fatal("benchmark query returned no rows")
	}

	b.Run("clone-materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := rdf.NewGraph()
			for _, t := range graph.Triples() {
				g.MustAdd(t)
			}
			res, err := sparql.ExecBaseline(g.Snapshot(), query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) != wantRows {
				b.Fatalf("rows = %d, want %d", len(res.Bindings), wantRows)
			}
		}
		b.ReportMetric(float64(wantRows), "rows")
	})
	b.Run("snapshot-stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := log.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) != wantRows {
				b.Fatalf("rows = %d, want %d", len(res.Bindings), wantRows)
			}
		}
		b.ReportMetric(float64(wantRows), "rows")
	})
}

// BenchmarkViewCompilation measures the pure view-compilation cost
// (parse + resolve + compile) with pre-deployed services.
func BenchmarkViewCompilation(b *testing.B) {
	f := New()
	if err := f.DeployStandardLibrary(); err != nil {
		b.Fatal(err)
	}
	if err := f.DeployAnnotator("ImprintOutputAnnotator", ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Fn:       func([]evidence.Item, annotstore.Store) error { return nil },
	}); err != nil {
		b.Fatal(err)
	}
	src := []byte(PaperViewXML)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.CompileView(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataPlane measures the enactment data plane over the Figure-7
// pipeline: serial invocation vs shard-parallel fan-out vs fan-out plus
// the content-addressed response cache. Each sub-benchmark enacts the full
// embedded workflow; cached runs report their hit rate, and the exposition
// check keeps the shard/cache counters valid on /metrics.
func BenchmarkDataPlane(b *testing.B) {
	w := mustWorld(b)
	for _, cfg := range []struct {
		name  string
		shard int
		cache bool
	}{
		{"serial", 0, false},
		{"shard2", 2, false},
		{"shard4", 4, false},
		{"shard4cache", 4, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cache *qcache.Cache
			if cfg.cache {
				cache = qcache.New(qcache.Options{Name: "bench-" + cfg.name})
			}
			p, err := ispider.BuildPipelineWith(w, ispider.PipelineOptions{
				ShardSize: cfg.shard,
				Cache:     cache,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Compiled.SetFilterCondition("filter top k score", "ScoreClass in q:high"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var out *ispider.RunOutput
			for i := 0; i < b.N; i++ {
				out, err = p.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(out.Accepted.Len()), "accepted")
			if cache != nil {
				s := cache.Stats()
				if total := s.Hits + s.Misses; total > 0 {
					b.ReportMetric(100*float64(s.Hits)/float64(total), "hit%")
				}
			}
			var buf bytes.Buffer
			if err := telemetry.Default.WriteProm(&buf); err != nil {
				b.Fatalf("WriteProm: %v", err)
			}
			if err := telemetry.ValidateExposition(&buf); err != nil {
				b.Fatalf("/metrics exposition malformed: %v", err)
			}
		})
	}
}

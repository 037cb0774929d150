package services

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/qa"
	"qurator/internal/rdf"
)

func canonicalBytes(t *testing.T, m *evidence.Map) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.WriteCanonical(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// randomAnnotationMap draws a map over up to 12 items: the evidence the
// standard QAs read plus free keys, every value kind the wire carries
// (terms as IRIs), and items without evidence. Numeric kinds are drawn
// most often so the QAs and conditions have values to score.
func randomAnnotationMap(rng *rand.Rand) *evidence.Map {
	keys := []evidence.Key{
		ontology.HitRatio, ontology.Coverage, ontology.MassCoverage, ontology.PeptidesCount,
		rdf.IRI("urn:key:a"), rdf.IRI("urn:key:b"),
	}
	m := evidence.NewMap()
	for i := rng.Intn(13); i > 0; i-- {
		it := item(rng.Intn(20))
		m.AddItem(it)
		for k := rng.Intn(len(keys) + 1); k > 0; k-- {
			var v evidence.Value
			switch rng.Intn(7) {
			case 0, 1:
				v = evidence.Float(rng.Float64())
			case 2:
				v = evidence.Int(rng.Int63n(40) - 5)
			case 3:
				v = evidence.String_(fmt.Sprintf("s%d <&\"'>", rng.Intn(9)))
			case 4:
				v = evidence.Bool(rng.Intn(2) == 0)
			default:
				v = evidence.TermValue(rdf.IRI(fmt.Sprintf("urn:label:%d", rng.Intn(3))))
			}
			m.Set(it, keys[rng.Intn(len(keys))], v)
		}
	}
	return m
}

// overWire sends an envelope through the XML encoding, as the HTTP
// transports do.
func overWire(t *testing.T, e *Envelope) *Envelope {
	t.Helper()
	data, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestTypedPathMatchesWirePathProperty invokes every standard service on
// random maps twice: in-process with typed envelopes, and with request
// and response each sent through Marshal→UnmarshalEnvelope. Both paths
// must yield identical maps and groups (or both fail), and the in-process
// call must leave the caller's request map untouched.
func TestTypedPathMatchesWirePathProperty(t *testing.T) {
	enrichRepos := annotstore.NewRegistry()
	cache := enrichRepos.MustGet("cache")
	for i := 0; i < 20; i += 2 {
		cache.Put(annotstore.Annotation{Item: item(i), Type: ontology.Coverage, Value: evidence.Float(float64(i) / 20)})
		cache.Put(annotstore.Annotation{Item: item(i), Type: ontology.PeptidesCount, Value: evidence.Int(int64(i))})
	}
	annotator := func(repos *annotstore.Registry) QualityService {
		return &AnnotatorService{
			ServiceName:  "annotate",
			Repositories: repos,
			Annotator: ops.AnnotatorFunc{
				ClassIRI: ontology.ImprintOutputAnnotation,
				Types:    []rdf.Term{ontology.HitRatio},
				Fn: func(items []evidence.Item, repo annotstore.Store) error {
					for i, it := range items {
						if err := repo.Put(annotstore.Annotation{Item: it, Type: ontology.HitRatio, Value: evidence.Float(float64(i))}); err != nil {
							return err
						}
					}
					return nil
				},
			},
		}
	}
	type call struct {
		name string
		// svc returns the service for one path; stateful services get a
		// fresh instance per path.
		svc func() QualityService
		req func(m *evidence.Map) *Envelope
	}
	plain := func(m *evidence.Map) *Envelope { return NewEnvelope(m) }
	calls := []call{
		{"assertion-score", func() QualityService {
			return &AssertionService{ServiceName: "HR_MC_score", QA: qa.NewUniversalPIScore(ontology.Q("tag/HR_MC"))}
		}, plain},
		{"assertion-score-skip-missing", func() QualityService {
			score := qa.NewUniversalPIScore(ontology.Q("tag/HR_MC"))
			score.SkipMissing = true
			return &AssertionService{ServiceName: "HR_MC_score", QA: score}
		}, plain},
		{"assertion-classifier", func() QualityService {
			return &AssertionService{ServiceName: "PIScoreClassifier", QA: qa.NewPIScoreClassifier()}
		}, plain},
		{"enrichment", func() QualityService {
			return &EnrichmentService{ServiceName: "DE", Repositories: enrichRepos}
		}, func(m *evidence.Map) *Envelope {
			e := NewEnvelope(m)
			e.Config.Set(SourceParam(ontology.Coverage), "cache")
			e.Config.Set(SourceParam(ontology.PeptidesCount), "cache")
			return e
		}},
		{"filter", func() QualityService { return &ActionService{ServiceName: "act"} },
			func(m *evidence.Map) *Envelope {
				e := NewEnvelope(m)
				e.Operation = "filter"
				e.Config.Set("condition", "hr > 0.4 or pc > 10")
				e.Config.Set(VarParam("hr"), ontology.HitRatio.Value())
				e.Config.Set(VarParam("pc"), ontology.PeptidesCount.Value())
				return e
			}},
		{"split", func() QualityService { return &ActionService{ServiceName: "act"} },
			func(m *evidence.Map) *Envelope {
				e := NewEnvelope(m)
				e.Operation = "split"
				e.Config.Set("group:high", "hr >= 0.7")
				e.Config.Set("group:low", "hr < 0.3")
				e.Config.Set(VarParam("hr"), ontology.HitRatio.Value())
				return e
			}},
		{"annotator", func() QualityService { return annotator(annotstore.NewRegistry()) }, plain},
	}
	ctx := context.Background()
	for seed := int64(0); seed < 60; seed++ {
		m := randomAnnotationMap(rand.New(rand.NewSource(seed)))
		before := canonicalBytes(t, m)
		for _, c := range calls {
			typed, terr := c.svc().Invoke(ctx, c.req(m))
			if !bytes.Equal(canonicalBytes(t, m), before) {
				t.Fatalf("seed %d %s: the in-process call mutated the caller's map", seed, c.name)
			}
			wired, werr := c.svc().Invoke(ctx, overWire(t, c.req(m)))
			if (terr == nil) != (werr == nil) {
				t.Fatalf("seed %d %s: typed error %v, wire error %v", seed, c.name, terr, werr)
			}
			if terr != nil {
				continue
			}
			wired = overWire(t, wired)
			tm, err := typed.Map()
			if err != nil {
				t.Fatal(err)
			}
			wm, err := wired.Map()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonicalBytes(t, tm), canonicalBytes(t, wm)) {
				t.Fatalf("seed %d %s: maps differ\ntyped: %v\nwire:  %v", seed, c.name, tm, wm)
			}
			tg, err := typed.GroupMaps()
			if err != nil {
				t.Fatal(err)
			}
			wg, err := wired.GroupMaps()
			if err != nil {
				t.Fatal(err)
			}
			if len(tg) != len(wg) {
				t.Fatalf("seed %d %s: %d typed groups, %d wire groups", seed, c.name, len(tg), len(wg))
			}
			for name, g := range tg {
				w, ok := wg[name]
				if !ok || !bytes.Equal(canonicalBytes(t, g), canonicalBytes(t, w)) {
					t.Fatalf("seed %d %s: group %q differs\ntyped: %v\nwire:  %v", seed, c.name, name, g, w)
				}
			}
		}
	}
}

// TestEnvelopeReadsAreIsolated: every Map/GroupMaps read returns a map
// the reader owns — mutating it changes neither the envelope, nor later
// reads, nor the marshalled bytes.
func TestEnvelopeReadsAreIsolated(t *testing.T) {
	src := sampleMap(4)
	want := canonicalBytes(t, src)
	env := NewEnvelope(src)
	env.SetGroups(map[string]*evidence.Map{"high": sampleMap(2)}, []string{"high"})
	wire, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	groupWant := canonicalBytes(t, sampleMap(2))

	m, err := env.Map()
	if err != nil {
		t.Fatal(err)
	}
	m.Set(item(0), ontology.HitRatio, evidence.Float(-1))
	m.Set(item(9), ontology.Coverage, evidence.Int(3))
	m.RemoveFirst(2)
	groups, err := env.GroupMaps()
	if err != nil {
		t.Fatal(err)
	}
	groups["high"].Set(item(1), ontology.HitRatio, evidence.Bool(false))
	groups["high"].AddItem(item(7))

	again, err := env.Map()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalBytes(t, again), want) {
		t.Errorf("a later Map read sees an earlier reader's mutation:\n%v", again)
	}
	if !bytes.Equal(canonicalBytes(t, src), want) {
		t.Error("mutating a read map changed the map the envelope was built from")
	}
	groups, err = env.GroupMaps()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalBytes(t, groups["high"]), groupWant) {
		t.Errorf("a later GroupMaps read sees an earlier reader's mutation:\n%v", groups["high"])
	}
	after, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, wire) {
		t.Error("mutating read maps changed the marshalled envelope")
	}
}

// TestNonIRITermKindOverWire pins the one difference between the paths:
// the wire schema records a term value by its string alone, so a
// non-IRI term (here a literal) decodes as an IRI, while in-process the
// value keeps its term kind.
func TestNonIRITermKindOverWire(t *testing.T) {
	lit := rdf.Literal("high")
	m := evidence.NewMap(item(0))
	m.Set(item(0), ontology.PIScoreClassification, evidence.TermValue(lit))
	env := NewEnvelope(m)

	typed, err := env.Map()
	if err != nil {
		t.Fatal(err)
	}
	if got := typed.Class(item(0), ontology.PIScoreClassification); got != lit {
		t.Errorf("in-process term = %v, want the literal %v", got, lit)
	}
	wired, err := overWire(t, env).Map()
	if err != nil {
		t.Fatal(err)
	}
	if got := wired.Class(item(0), ontology.PIScoreClassification); got != rdf.IRI("high") {
		t.Errorf("wire term = %v, want the IRI <high>", got)
	}
}

// TestEnvelopeConcurrentReads: a cached response envelope is read by
// many goroutines at once; each reads, mutates its own copy and
// marshals, and none may see another's writes. Run under -race.
func TestEnvelopeConcurrentReads(t *testing.T) {
	env := NewEnvelope(sampleMap(8))
	env.SetGroups(map[string]*evidence.Map{"high": sampleMap(3)}, []string{"high"})
	want := canonicalBytes(t, sampleMap(8))
	wire, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m, err := env.Map()
				if err != nil {
					t.Error(err)
					return
				}
				var b bytes.Buffer
				if err := m.WriteCanonical(&b); err != nil || !bytes.Equal(b.Bytes(), want) {
					t.Errorf("goroutine %d read a map that differs from the envelope's (err %v)", g, err)
					return
				}
				m.Set(item(g), ontology.HitRatio, evidence.Int(int64(i)))
				groups, err := env.GroupMaps()
				if err != nil {
					t.Error(err)
					return
				}
				groups["high"].RemoveFirst(1)
				data, err := env.Marshal()
				if err != nil || !bytes.Equal(data, wire) {
					t.Errorf("goroutine %d marshalled different bytes (err %v)", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A wire annotation map's size is set by the client: decoding one whose
// every key holds a single item's value must cost about what its entries
// cost, not a value slot per item for every key (n·n·104 bytes here).
func TestDecodeSparseKeysCostTheirEntries(t *testing.T) {
	const n = 1000
	var e Envelope
	for i := 0; i < n; i++ {
		uri := fmt.Sprintf("urn:lsid:test.org:item:%d", i)
		e.DataSet.Items = append(e.DataSet.Items, ItemRef{URI: uri})
		e.Annotations.Entries = append(e.Annotations.Entries, Entry{
			Item: uri, Key: fmt.Sprintf("urn:key:%d", i), Kind: "float", Value: "0.5",
		})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := e.Map()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Keys()); got != n {
		t.Fatalf("decoded %d keys, want %d", got, n)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4*n*1024 {
		t.Errorf("decoding %d items with one single-item key each: %d bytes, want ≤ %d", n, b, 4*n*1024)
	}
}

package annotstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qurator/internal/evidence"
	"qurator/internal/lsid"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

func protein(acc string) evidence.Item {
	return rdf.IRI(lsid.MustWrap("uniprot.org", "uniprot", acc))
}

func TestPutGetRoundTrip(t *testing.T) {
	r := New("cache", false)
	p := protein("P30089")
	err := r.Put(Annotation{
		Item:        p,
		Type:        ontology.HitRatio,
		Value:       evidence.Float(0.82),
		Source:      ontology.ImprintOutputAnnotation,
		EntityClass: ontology.ImprintHitEntry,
	})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok := r.Get(p, ontology.HitRatio)
	if !ok || !v.Equal(evidence.Float(0.82)) {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if src := r.Source(p, ontology.HitRatio); src != ontology.ImprintOutputAnnotation {
		t.Errorf("Source = %v", src)
	}
	if _, ok := r.Get(p, ontology.MassCoverage); ok {
		t.Error("absent type should not be found")
	}
	if _, ok := r.Get(protein("P99999"), ontology.HitRatio); ok {
		t.Error("absent item should not be found")
	}
}

func TestPutOverwrites(t *testing.T) {
	r := New("cache", false)
	p := protein("P30089")
	for _, val := range []float64{0.1, 0.5, 0.9} {
		if err := r.Put(Annotation{Item: p, Type: ontology.HitRatio, Value: evidence.Float(val)}); err != nil {
			t.Fatal(err)
		}
	}
	v, ok := r.Get(p, ontology.HitRatio)
	if !ok || !v.Equal(evidence.Float(0.9)) {
		t.Fatalf("Get after overwrite = %v", v)
	}
	if n := r.Len(); n != 1 {
		t.Errorf("Len = %d, want 1 (overwrite must not accumulate)", n)
	}
}

func TestPutValidation(t *testing.T) {
	r := New("cache", false)
	p := protein("P1")
	bad := []Annotation{
		{},
		{Item: rdf.Literal("x"), Type: ontology.HitRatio, Value: evidence.Float(1)},
		{Item: p, Type: rdf.Literal("t"), Value: evidence.Float(1)},
		{Item: p, Type: ontology.HitRatio, Value: evidence.Null},
	}
	for i, a := range bad {
		if err := r.Put(a); err == nil {
			t.Errorf("case %d: Put should fail", i)
		}
	}
}

func TestModelValidation(t *testing.T) {
	r := New("cache", false).WithModel(ontology.NewIQModel())
	p := protein("P1")
	if err := r.Put(Annotation{Item: p, Type: ontology.HitRatio, Value: evidence.Float(1)}); err != nil {
		t.Errorf("valid evidence type rejected: %v", err)
	}
	if err := r.Put(Annotation{Item: p, Type: rdf.IRI("urn:not-evidence"), Value: evidence.Float(1)}); err == nil {
		t.Error("non-QualityEvidence type should be rejected under a model")
	}
}

func TestEnrichFillsAnnotationMap(t *testing.T) {
	r := New("cache", false)
	items := []evidence.Item{protein("P1"), protein("P2"), protein("P3")}
	for i, it := range items {
		if err := r.Put(Annotation{Item: it, Type: ontology.HitRatio, Value: evidence.Float(float64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	// P2 also has MC; P3 has none requested.
	if err := r.Put(Annotation{Item: items[1], Type: ontology.MassCoverage, Value: evidence.Float(0.5)}); err != nil {
		t.Fatal(err)
	}

	m := evidence.NewMap(items...)
	m.AddItem(protein("P-unknown"))
	n, err := r.Enrich(m, []rdf.Term{ontology.HitRatio, ontology.MassCoverage})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("Enrich added %d values, want 4", n)
	}
	if !m.Get(items[0], ontology.HitRatio).Equal(evidence.Float(1)) {
		t.Error("P1 HitRatio missing after Enrich")
	}
	if !m.Get(items[1], ontology.MassCoverage).Equal(evidence.Float(0.5)) {
		t.Error("P2 MassCoverage missing after Enrich")
	}
	if m.Has(protein("P-unknown"), ontology.HitRatio) {
		t.Error("unknown item should stay null")
	}
}

func TestItemsAndTypesOf(t *testing.T) {
	r := New("cache", false)
	p1, p2 := protein("P1"), protein("P2")
	r.Put(Annotation{Item: p1, Type: ontology.HitRatio, Value: evidence.Float(1)})
	r.Put(Annotation{Item: p1, Type: ontology.MassCoverage, Value: evidence.Float(2)})
	r.Put(Annotation{Item: p2, Type: ontology.HitRatio, Value: evidence.Float(3)})
	if got := r.Items(); !reflect.DeepEqual(got, []evidence.Item{p1, p2}) {
		t.Errorf("Items = %v", got)
	}
	if got := r.TypesOf(p1); len(got) != 2 {
		t.Errorf("TypesOf(p1) = %v", got)
	}
	if got := r.TypesOf(p2); !reflect.DeepEqual(got, []rdf.Term{ontology.HitRatio}) {
		t.Errorf("TypesOf(p2) = %v", got)
	}
}

func TestSPARQLAccessPath(t *testing.T) {
	// The paper's §5 access: SPARQL over the annotation graph.
	r := New("cache", false)
	p := protein("P30089")
	r.Put(Annotation{Item: p, Type: ontology.HitRatio, Value: evidence.Float(0.82)})
	res, err := r.Query(fmt.Sprintf(
		"PREFIX q: <%s>\nSELECT ?v WHERE { <%s> q:containsEvidence ?n . ?n a q:HitRatio . ?n q:evidenceValue ?v . }",
		ontology.QuratorNS, p.Value()))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Bindings) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Bindings))
	}
	if f, ok := res.Bindings[0]["v"].Float(); !ok || f != 0.82 {
		t.Errorf("value = %v", res.Bindings[0]["v"])
	}
}

func TestClear(t *testing.T) {
	r := New("cache", false)
	r.Put(Annotation{Item: protein("P1"), Type: ontology.HitRatio, Value: evidence.Float(1)})
	r.Clear()
	if r.Len() != 0 || len(r.Items()) != 0 {
		t.Error("Clear should empty the repository")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Get("cache"); !ok {
		t.Fatal("registry should pre-register cache")
	}
	if _, ok := reg.Get("default"); !ok {
		t.Fatal("registry should pre-register default")
	}
	custom := New("uniprot-credibility", true)
	reg.Add(custom)
	if got := reg.MustGet("uniprot-credibility"); got != custom {
		t.Error("Add/MustGet mismatch")
	}
	if _, ok := reg.Get("nope"); ok {
		t.Error("unknown name should miss")
	}
	want := []string{"cache", "default", "uniprot-credibility"}
	if got := reg.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGet of unknown repo should panic")
		}
	}()
	reg.MustGet("nope")
}

func TestClearCachesLeavesPersistent(t *testing.T) {
	reg := NewRegistry()
	cache := reg.MustGet("cache")
	def := reg.MustGet("default")
	p := protein("P1")
	cache.Put(Annotation{Item: p, Type: ontology.HitRatio, Value: evidence.Float(1)})
	def.Put(Annotation{Item: p, Type: ontology.EvidenceCode, Value: evidence.String_("TAS")})
	reg.ClearCaches()
	if cache.Len() != 0 {
		t.Error("cache should be cleared")
	}
	if def.Len() != 1 {
		t.Error("persistent repository should survive ClearCaches")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	r := New("cache", false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := protein(fmt.Sprintf("P%d-%d", w, i))
				if err := r.Put(Annotation{Item: p, Type: ontology.HitRatio, Value: evidence.Float(float64(i))}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, ok := r.Get(p, ontology.HitRatio); !ok {
					t.Error("Get after Put failed")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("Len = %d, want 800", r.Len())
	}
}

func BenchmarkPut(b *testing.B) {
	r := New("cache", false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Put(Annotation{
			Item:  protein(fmt.Sprintf("P%d", i%1000)),
			Type:  ontology.HitRatio,
			Value: evidence.Float(float64(i)),
		})
	}
}

func BenchmarkEnrich(b *testing.B) {
	r := New("cache", false)
	items := make([]evidence.Item, 100)
	for i := range items {
		items[i] = protein(fmt.Sprintf("P%d", i))
		r.Put(Annotation{Item: items[i], Type: ontology.HitRatio, Value: evidence.Float(float64(i))})
		r.Put(Annotation{Item: items[i], Type: ontology.MassCoverage, Value: evidence.Float(float64(i) / 2)})
	}
	types := []rdf.Term{ontology.HitRatio, ontology.MassCoverage}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := evidence.NewMap(items...)
		r.Enrich(m, types)
	}
}

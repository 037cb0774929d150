package services

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/qa"
	"qurator/internal/rdf"
)

func item(i int) evidence.Item {
	return rdf.IRI(fmt.Sprintf("urn:lsid:test.org:hit:%d", i))
}

func sampleMap(n int) *evidence.Map {
	m := evidence.NewMap()
	for i := 0; i < n; i++ {
		frac := float64(i+1) / float64(n)
		m.Set(item(i), ontology.HitRatio, evidence.Float(frac))
		m.Set(item(i), ontology.Coverage, evidence.Float(frac))
		m.SetClass(item(i), ontology.PIScoreClassification, ontology.ClassMid)
	}
	return m
}

func TestEnvelopeRoundTrip(t *testing.T) {
	m := sampleMap(4)
	m.Set(item(0), ontology.PeptidesCount, evidence.Int(7))
	m.Set(item(1), ontology.EvidenceCode, evidence.String_("TAS"))
	m.Set(item(2), ontology.Q("flag"), evidence.Bool(true))

	env := NewEnvelope(m)
	env.Service = "test"
	env.Config.Set("condition", "x > 1")
	data, err := env.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := UnmarshalEnvelope(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	m2, err := back.Map()
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !reflect.DeepEqual(m.Items(), m2.Items()) {
		t.Errorf("items differ: %v vs %v", m.Items(), m2.Items())
	}
	for _, it := range m.Items() {
		if !reflect.DeepEqual(m.Row(it), m2.Row(it)) {
			t.Errorf("row %v differs:\n%v\n%v", it, m.Row(it), m2.Row(it))
		}
	}
	if v, ok := back.Config.Get("condition"); !ok || v != "x > 1" {
		t.Error("config lost in round trip")
	}
}

func TestEnvelopePreservesItemsWithoutEvidence(t *testing.T) {
	m := evidence.NewMap(item(0), item(1))
	m.Set(item(0), ontology.HitRatio, evidence.Float(0.5))
	env := NewEnvelope(m)
	back, err := env.Map()
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("items = %d, want 2 (evidence-less item must survive)", back.Len())
	}
}

func TestEnvelopeDecodeErrors(t *testing.T) {
	bad := []Entry{
		{Item: "urn:x", Key: "urn:k", Kind: "float", Value: "abc"},
		{Item: "urn:x", Key: "urn:k", Kind: "int", Value: "1.5"},
		{Item: "urn:x", Key: "urn:k", Kind: "bool", Value: "yes"},
		{Item: "urn:x", Key: "urn:k", Kind: "quux", Value: "1"},
	}
	for _, e := range bad {
		env := &Envelope{Annotations: AnnotationMapXML{Entries: []Entry{e}}}
		if _, err := env.Map(); err == nil {
			t.Errorf("entry %+v should fail to decode", e)
		}
	}
	env := &Envelope{DataSet: DataSet{Items: []ItemRef{{URI: ""}}}}
	if _, err := env.Map(); err == nil {
		t.Error("empty item URI should fail")
	}
	if _, err := UnmarshalEnvelope([]byte("not xml")); err == nil {
		t.Error("bad XML should fail")
	}
}

func TestConfigSetReplaces(t *testing.T) {
	var c Config
	c.Set("a", "1")
	c.Set("a", "2")
	c.Set("b", "3")
	if v, _ := c.Get("a"); v != "2" {
		t.Errorf("a = %q", v)
	}
	if len(c.Params) != 2 {
		t.Errorf("params = %v", c.Params)
	}
	if _, ok := c.Get("zzz"); ok {
		t.Error("absent param should miss")
	}
}

func TestAssertionService(t *testing.T) {
	svc := &AssertionService{
		ServiceName: "HR_MC_score",
		QA:          qa.NewUniversalPIScore(ontology.Q("tag/HR_MC")),
	}
	info := svc.Describe()
	if info.Kind != KindAssertion || info.Type != ontology.UniversalPIScore2.Value() {
		t.Errorf("Describe = %+v", info)
	}
	resp, err := svc.Invoke(context.Background(), NewEnvelope(sampleMap(5)))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	out, err := resp.Map()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range out.Items() {
		if !out.Has(it, ontology.Q("tag/HR_MC")) {
			t.Errorf("score missing on %v", it)
		}
	}
}

func TestAnnotatorServiceWritesRepository(t *testing.T) {
	repos := annotstore.NewRegistry()
	svc := &AnnotatorService{
		ServiceName:  "ImprintOutputAnnotator",
		Repositories: repos,
		Annotator: ops.AnnotatorFunc{
			ClassIRI: ontology.ImprintOutputAnnotation,
			Types:    []rdf.Term{ontology.HitRatio},
			Fn: func(items []evidence.Item, repo annotstore.Store) error {
				for i, it := range items {
					if err := repo.Put(annotstore.Annotation{
						Item: it, Type: ontology.HitRatio, Value: evidence.Float(float64(i)),
					}); err != nil {
						return err
					}
				}
				return nil
			},
		},
	}
	req := NewEnvelope(evidence.NewMap(item(0), item(1)))
	req.Config.Set("repositoryRef", "cache")
	resp, err := svc.Invoke(context.Background(), req)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	// Annotators return the (evidence-less) data set.
	m, _ := resp.Map()
	if m.Len() != 2 || len(m.Keys()) != 0 {
		t.Errorf("annotator response should be empty map over the data set, got %v", m)
	}
	cache := repos.MustGet("cache")
	if cache.Len() != 2 {
		t.Errorf("repository has %d annotations, want 2", cache.Len())
	}
	// Unknown repository is a fault.
	req.Config.Set("repositoryRef", "nope")
	if _, err := svc.Invoke(context.Background(), req); err == nil {
		t.Error("unknown repositoryRef should fail")
	}
}

func TestEnrichmentService(t *testing.T) {
	repos := annotstore.NewRegistry()
	cache := repos.MustGet("cache")
	for i := 0; i < 3; i++ {
		cache.Put(annotstore.Annotation{Item: item(i), Type: ontology.HitRatio, Value: evidence.Float(float64(i))})
	}
	svc := &EnrichmentService{ServiceName: "DE", Repositories: repos}
	req := NewEnvelope(evidence.NewMap(item(0), item(1), item(2)))
	req.Config.Set(SourceParam(ontology.HitRatio), "cache")
	resp, err := svc.Invoke(context.Background(), req)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	m, _ := resp.Map()
	for i := 0; i < 3; i++ {
		if !m.Get(item(i), ontology.HitRatio).Equal(evidence.Float(float64(i))) {
			t.Errorf("item %d not enriched", i)
		}
	}
	req.Config.Set(SourceParam(ontology.MassCoverage), "ghost-repo")
	if _, err := svc.Invoke(context.Background(), req); err == nil {
		t.Error("unknown source repository should fail")
	}
}

func TestActionServiceFilter(t *testing.T) {
	svc := &ActionService{ServiceName: "act"}
	req := NewEnvelope(sampleMap(10))
	req.Operation = "filter"
	req.Config.Set("condition", "hr >= 0.5")
	req.Config.Set(VarParam("hr"), ontology.HitRatio.Value())
	resp, err := svc.Invoke(context.Background(), req)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	m, _ := resp.Map()
	if m.Len() != 6 { // 0.5, 0.6, ..., 1.0
		t.Errorf("filtered to %d items, want 6", m.Len())
	}
	// Missing condition and bad condition fail.
	req2 := NewEnvelope(sampleMap(2))
	req2.Operation = "filter"
	if _, err := svc.Invoke(context.Background(), req2); err == nil {
		t.Error("filter without condition should fail")
	}
	req2.Config.Set("condition", ">>>")
	if _, err := svc.Invoke(context.Background(), req2); err == nil {
		t.Error("unparseable condition should fail")
	}
}

func TestActionServiceSplit(t *testing.T) {
	svc := &ActionService{ServiceName: "act"}
	req := NewEnvelope(sampleMap(10))
	req.Operation = "split"
	req.Config.Set("group:strong", "hr >= 0.8")
	req.Config.Set("group:weak", "hr <= 0.3")
	req.Config.Set(VarParam("hr"), ontology.HitRatio.Value())
	resp, err := svc.Invoke(context.Background(), req)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	groups, err := resp.GroupMaps()
	if err != nil {
		t.Fatal(err)
	}
	if groups["strong"].Len() != 3 || groups["weak"].Len() != 3 || groups["default"].Len() != 4 {
		t.Errorf("groups: strong=%d weak=%d default=%d",
			groups["strong"].Len(), groups["weak"].Len(), groups["default"].Len())
	}
	if _, err := svc.Invoke(context.Background(), &Envelope{Operation: "explode"}); err == nil {
		t.Error("unknown operation should fail")
	}
}

func TestCoreServiceDescriptions(t *testing.T) {
	ann := &AnnotatorService{ServiceName: "ann", Annotator: ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Types:    []rdf.Term{ontology.HitRatio},
	}}
	if info := ann.Describe(); info.Kind != KindAnnotation || len(info.Outputs) != 1 {
		t.Errorf("annotator Describe = %+v", info)
	}
	de := &EnrichmentService{ServiceName: "de"}
	if info := de.Describe(); info.Kind != KindEnrichment || info.Name != "de" {
		t.Errorf("enrichment Describe = %+v", info)
	}
	act := &ActionService{ServiceName: "act"}
	if info := act.Describe(); info.Kind != KindAction {
		t.Errorf("action Describe = %+v", info)
	}
}

func TestRegistryListAndGet(t *testing.T) {
	reg := NewRegistry()
	reg.Add(&AssertionService{ServiceName: "s2", QA: qa.NewUniversalPIScore(ontology.Q("t2"))})
	reg.Add(&AssertionService{ServiceName: "s1", QA: qa.NewUniversalPIScore(ontology.Q("t1"))})
	reg.Add(&ActionService{ServiceName: "act"})
	got := reg.List()
	if len(got) != 3 {
		t.Fatalf("List = %v", got)
	}
	if got[0].Name != "act" || got[1].Name != "s1" || got[2].Name != "s2" {
		t.Errorf("List should sort by name: %v", got)
	}
	if _, ok := reg.Get("nope"); ok {
		t.Error("unknown service should miss")
	}
}

func TestHTTPTransportAndScavenger(t *testing.T) {
	// Host a registry over HTTP; scavenge and invoke remotely — the §5
	// deployment path end to end.
	reg := NewRegistry()
	reg.Add(&AssertionService{
		ServiceName: "HR_MC_score",
		QA:          qa.NewUniversalPIScore(ontology.Q("tag/HR_MC")),
	})
	reg.Add(&ActionService{ServiceName: "act"})
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	client := &Client{BaseURL: srv.URL}
	found, err := client.Scavenge(context.Background())
	if err != nil {
		t.Fatalf("Scavenge: %v", err)
	}
	if len(found) != 2 {
		t.Fatalf("scavenged %d services, want 2", len(found))
	}
	// Add the proxies to a local registry and invoke through it.
	local := NewRegistry()
	for _, s := range found {
		local.Add(s)
	}
	svc, ok := local.Get("HR_MC_score")
	if !ok {
		t.Fatal("scavenged service not registered")
	}
	resp, err := svc.Invoke(context.Background(), NewEnvelope(sampleMap(4)))
	if err != nil {
		t.Fatalf("remote Invoke: %v", err)
	}
	m, _ := resp.Map()
	if !m.Has(item(0), ontology.Q("tag/HR_MC")) {
		t.Error("remote invocation produced no scores")
	}
}

func TestHTTPFaultPropagation(t *testing.T) {
	reg := NewRegistry()
	reg.Add(&ActionService{ServiceName: "act"})
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	// Service fault (bad condition) surfaces as an error with the fault text.
	req := NewEnvelope(sampleMap(1))
	req.Operation = "filter"
	_, err := client.Invoke(context.Background(), "act", req)
	if err == nil || !strings.Contains(err.Error(), "condition") {
		t.Errorf("fault not propagated: %v", err)
	}
	// Unknown service is a transport-level 404.
	if _, err := client.Invoke(context.Background(), "ghost", req); err == nil {
		t.Error("unknown service should fail")
	}
}

func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	m := sampleMap(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := NewEnvelope(m)
		data, err := env.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		back, err := UnmarshalEnvelope(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := back.Map(); err != nil {
			b.Fatal(err)
		}
	}
}

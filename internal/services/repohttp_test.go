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
	"qurator/internal/rdf"
	"qurator/internal/sparql"
)

// remoteWorld hosts a registry with one populated persistent repository
// and returns a client pointed at it.
func remoteWorld(t *testing.T) (*annotstore.Registry, *Client, func()) {
	t.Helper()
	reg := annotstore.NewRegistry()
	def := reg.MustGet("default")
	for i := 0; i < 5; i++ {
		err := def.Put(annotstore.Annotation{
			Item:  item(i),
			Type:  ontology.HitRatio,
			Value: evidence.Float(float64(i) / 10),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(RepositoryHandler(reg))
	return reg, &Client{BaseURL: srv.URL}, srv.Close
}

func TestScavengeRepositories(t *testing.T) {
	_, client, done := remoteWorld(t)
	defer done()
	repos, err := client.ScavengeRepositories(context.Background())
	if err != nil {
		t.Fatalf("ScavengeRepositories: %v", err)
	}
	if len(repos) != 2 {
		t.Fatalf("found %d repositories, want 2 (cache, default)", len(repos))
	}
	byName := map[string]*RemoteRepository{}
	for _, r := range repos {
		byName[r.Name()] = r
	}
	if !byName["default"].Persistent() || byName["cache"].Persistent() {
		t.Error("persistence flags wrong")
	}
}

func TestRemoteGetPutLen(t *testing.T) {
	reg, client, done := remoteWorld(t)
	defer done()
	remote := NewRemoteRepository(client, "default", true)

	// Get an existing annotation.
	v, ok := remote.Get(item(3), ontology.HitRatio)
	if !ok || !v.Equal(evidence.Float(0.3)) {
		t.Errorf("remote Get = %v, %v", v, ok)
	}
	// Missing annotation.
	if _, ok := remote.Get(item(99), ontology.HitRatio); ok {
		t.Error("missing annotation should miss")
	}
	// Put through the proxy lands in the server-side store.
	err := remote.Put(annotstore.Annotation{
		Item: item(7), Type: ontology.MassCoverage, Value: evidence.String_("x y"),
	})
	if err != nil {
		t.Fatalf("remote Put: %v", err)
	}
	local := reg.MustGet("default")
	v, ok = local.Get(item(7), ontology.MassCoverage)
	if !ok || v.AsString() != "x y" {
		t.Errorf("server-side value = %v, %v", v, ok)
	}
	if remote.Len() != 6 {
		t.Errorf("remote Len = %d, want 6", remote.Len())
	}
	if got := remote.Items(); len(got) != 6 {
		t.Errorf("remote Items = %d", len(got))
	}
}

func TestRemoteEnrichBulk(t *testing.T) {
	_, client, done := remoteWorld(t)
	defer done()
	remote := NewRemoteRepository(client, "default", true)
	m := evidence.NewMap(item(0), item(1), item(2), item(99))
	n, err := remote.Enrich(m, []rdf.Term{ontology.HitRatio})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("remote Enrich added %d, want 3", n)
	}
	if !m.Get(item(2), ontology.HitRatio).Equal(evidence.Float(0.2)) {
		t.Error("enriched value wrong")
	}
	if m.Has(item(99), ontology.HitRatio) {
		t.Error("unknown item should stay null")
	}
}

func TestRemoteClear(t *testing.T) {
	reg, client, done := remoteWorld(t)
	defer done()
	remote := NewRemoteRepository(client, "default", true)
	remote.Clear()
	if reg.MustGet("default").Len() != 0 {
		t.Error("remote Clear did not clear the server store")
	}
}

func TestRemoteSPARQL(t *testing.T) {
	_, client, done := remoteWorld(t)
	defer done()
	remote := NewRemoteRepository(client, "default", true)
	res, err := remote.Query(fmt.Sprintf(
		"PREFIX q: <%s>\nSELECT ?v WHERE { <%s> q:containsEvidence ?n . ?n q:evidenceValue ?v . }",
		ontology.QuratorNS, item(3).Value()))
	if err != nil {
		t.Fatalf("remote Query: %v", err)
	}
	if len(res.Bindings) != 1 {
		t.Fatalf("rows = %d", len(res.Bindings))
	}
	if f, ok := res.Bindings[0]["v"].Float(); !ok || f != 0.3 {
		t.Errorf("value = %v", res.Bindings[0]["v"])
	}
	// Bad query surfaces the server-side error.
	if _, err := remote.Query("NOT SPARQL"); err == nil {
		t.Error("bad query should fail")
	}
}

func TestRemoteRepositoryInRegistry(t *testing.T) {
	// The proxy is a Store: register it locally and use it through the
	// normal framework machinery (enrichment service, ClearCaches).
	_, client, done := remoteWorld(t)
	defer done()

	local := annotstore.NewRegistry()
	local.Add(NewRemoteRepository(client, "default", true))

	de := &EnrichmentService{ServiceName: "DE", Repositories: local}
	req := NewEnvelope(evidence.NewMap(item(0), item(1)))
	req.Config.Set(SourceParam(ontology.HitRatio), "default")
	resp, err := de.Invoke(context.Background(), req)
	if err != nil {
		t.Fatalf("enrichment against remote store: %v", err)
	}
	m, _ := resp.Map()
	if !m.Get(item(1), ontology.HitRatio).Equal(evidence.Float(0.1)) {
		t.Error("enrichment through remote repository failed")
	}
}

func TestRemoteAnnotatorWritesRemoteRepository(t *testing.T) {
	// Full distributed flow: a local annotator service configured with a
	// registry whose "cache" is remote — annotations land on the server.
	serverReg, client, done := remoteWorld(t)
	defer done()

	localReg := annotstore.NewRegistry()
	localReg.Add(NewRemoteRepository(client, "cache", false))

	svc := &AnnotatorService{
		ServiceName:  "ann",
		Repositories: localReg,
		Annotator: ops.AnnotatorFunc{
			ClassIRI: ontology.ImprintOutputAnnotation,
			Fn: func(items []evidence.Item, repo annotstore.Store) error {
				for _, it := range items {
					if err := repo.Put(annotstore.Annotation{
						Item: it, Type: ontology.HitRatio, Value: evidence.Float(0.5),
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
	if _, err := svc.Invoke(context.Background(), req); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if serverReg.MustGet("cache").Len() != 2 {
		t.Errorf("server cache has %d annotations, want 2", serverReg.MustGet("cache").Len())
	}
}

func TestRepositoryGraphDump(t *testing.T) {
	_, client, done := remoteWorld(t)
	defer done()
	data, err := client.do(context.Background(), "GET", "/repositories/default/graph", nil, 200, true)
	if err != nil {
		t.Fatalf("graph dump: %v", err)
	}
	out := string(data)
	if !strings.Contains(out, "@prefix q:") || !strings.Contains(out, "q:containsEvidence") {
		t.Errorf("turtle dump incomplete:\n%s", out)
	}
}

func TestRepositoryHandlerErrors(t *testing.T) {
	_, client, done := remoteWorld(t)
	defer done()
	// Unknown repository → 404 on every route.
	ghost := NewRemoteRepository(client, "ghost", false)
	if _, ok := ghost.Get(item(0), ontology.HitRatio); ok {
		t.Error("unknown repository Get should miss")
	}
	if err := ghost.Put(annotstore.Annotation{Item: item(0), Type: ontology.HitRatio, Value: evidence.Float(1)}); err == nil {
		t.Error("unknown repository Put should fail")
	}
	if _, err := ghost.Query("ASK { ?a ?b ?c . }"); err == nil {
		t.Error("unknown repository Query should fail")
	}
	// Invalid annotation batch → 422.
	bad := NewRemoteRepository(client, "default", true)
	if err := bad.Put(annotstore.Annotation{Item: rdf.Term{}, Type: ontology.HitRatio, Value: evidence.Float(1)}); err == nil {
		t.Error("invalid annotation should fail server-side")
	}
}

var sparqlResultFixture = sparql.Result{
	Vars: []string{"x", "v"},
	Bindings: []sparql.Binding{
		{"x": rdf.IRI("urn:a"), "v": rdf.Double(0.5)},
		{"x": rdf.IRI("urn:b"), "v": rdf.Literal("label with \"quotes\"")},
		{"x": rdf.Blank("b1")}, // unbound v
	},
	Ok: true,
}

func TestResultsXMLRoundTrip(t *testing.T) {
	res := &sparqlResultFixture
	enc := encodeResults(res)
	back, err := decodeResults(enc)
	if err != nil {
		t.Fatalf("decodeResults: %v", err)
	}
	if !reflect.DeepEqual(back.Vars, res.Vars) || back.Ok != res.Ok {
		t.Errorf("metadata lost: %+v", back)
	}
	if len(back.Bindings) != len(res.Bindings) {
		t.Fatalf("rows = %d", len(back.Bindings))
	}
	for i := range res.Bindings {
		if !reflect.DeepEqual(back.Bindings[i], res.Bindings[i]) {
			t.Errorf("row %d: %v vs %v", i, back.Bindings[i], res.Bindings[i])
		}
	}
}

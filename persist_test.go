package qurator

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/provenance"
)

// TestPersistenceSurvivesRestart is the end-to-end durability check: a
// framework writes annotations and provenance with persistence on, shuts
// down, and a fresh framework over the same directory serves the same
// metadata — Get, Query, provenance history and run numbering all intact.
func TestPersistenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	f := New()
	if err := f.EnablePersistence(Persistence{Dir: dir, Fsync: "never"}); err != nil {
		t.Fatal(err)
	}
	repo, _ := f.Repository("default")
	item := NewItem("urn:lsid:test:hit:1")
	if err := repo.Put(Annotation{
		Item:   item,
		Type:   Q("HitRatio"),
		Value:  evidence.Float(0.82),
		Source: Q("ImprintAnnotation"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := repo.Put(Annotation{
		Item:  NewItem("urn:lsid:test:hit:2"),
		Type:  Q("MassCoverage"),
		Value: evidence.Float(0.61),
	}); err != nil {
		t.Fatal(err)
	}
	run, err := f.Provenance.Record(provenance.Record{
		View:      "test-view",
		Started:   time.Now(),
		InputSize: 2,
		Outputs:   map[string]int{"accept:out": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(run.Value(), "run/1") {
		t.Fatalf("first run IRI = %s", run)
	}
	wantAnnots := tripleStrings(t, repo)
	wantProv := f.Provenance.Graph().Triples()
	if err := f.CloseMetadata(); err != nil {
		t.Fatal(err)
	}

	// Restart: a new framework over the same directory.
	f2 := New()
	if err := f2.EnablePersistence(Persistence{Dir: dir, Fsync: "never"}); err != nil {
		t.Fatal(err)
	}
	defer f2.CloseMetadata()
	repo2, _ := f2.Repository("default")

	if v, ok := repo2.Get(item, Q("HitRatio")); !ok {
		t.Fatal("HitRatio annotation lost across restart")
	} else if got, _ := v.AsFloat(); got != 0.82 {
		t.Fatalf("recovered value = %v, want 0.82", got)
	}
	if got := tripleStrings(t, repo2); len(got) != len(wantAnnots) {
		t.Fatalf("annotation graph has %d triples after restart, want %d", len(got), len(wantAnnots))
	} else {
		for i := range got {
			if got[i] != wantAnnots[i] {
				t.Fatalf("annotation triple %d differs:\n got  %s\n want %s", i, got[i], wantAnnots[i])
			}
		}
	}

	if f2.Provenance.Len() != 1 {
		t.Fatalf("provenance Len = %d after restart, want 1", f2.Provenance.Len())
	}
	gotProv := f2.Provenance.Graph().Triples()
	if len(gotProv) != len(wantProv) {
		t.Fatalf("provenance graph has %d triples, want %d", len(gotProv), len(wantProv))
	}
	rec, ok := f2.Provenance.LastRun()
	if !ok || rec.View != "test-view" || rec.Outputs["accept:out"] != 1 {
		t.Fatalf("LastRun after restart = %+v, %v", rec, ok)
	}
	// Run numbering continues, never collides.
	run2, err := f2.Provenance.Record(provenance.Record{View: "second", Started: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(run2.Value(), "run/2") {
		t.Fatalf("post-restart run IRI = %s, want .../run/2", run2)
	}
}

func tripleStrings(t *testing.T, s Store) []string {
	t.Helper()
	local, ok := s.(*annotstore.Repository)
	if !ok {
		t.Fatal("not a local repository")
	}
	ts := local.Graph().Triples()
	out := make([]string, len(ts))
	for i, tr := range ts {
		out[i] = tr.String()
	}
	return out
}

// TestCubeObservesAnnotations checks the always-on cube feed: numeric
// annotations written to any repository appear in the cube's rollups and
// on the /cube HTTP surface.
func TestCubeObservesAnnotations(t *testing.T) {
	f := New()
	repo, _ := f.Repository("default")
	for i, v := range []float64{0.2, 0.4, 0.9} {
		if err := repo.Put(Annotation{
			Item:  NewItem("urn:lsid:test:item:" + string(rune('a'+i))),
			Type:  Q("HitRatio"),
			Value: evidence.Float(v),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Non-numeric evidence is not aggregated.
	if err := repo.Put(Annotation{
		Item:  NewItem("urn:lsid:test:item:z"),
		Type:  Q("ScoreClass"),
		Value: evidence.String_("high"),
	}); err != nil {
		t.Fatal(err)
	}

	sum := f.Cube().Summary()
	if sum.Observations != 3 {
		t.Fatalf("cube saw %d observations, want 3", sum.Observations)
	}
	hr := sum.Metrics[Q("HitRatio").Value()]
	if hr.Count != 3 || hr.Min != 0.2 || hr.Max != 0.9 {
		t.Fatalf("HitRatio rollup = %+v", hr)
	}

	srv := httptest.NewServer(f.CubeHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/?metric=" + url.QueryEscape(Q("HitRatio").Value()))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var slice struct {
		Agg struct {
			Count int64   `json:"count"`
			Mean  float64 `json:"mean"`
		} `json:"agg"`
	}
	if err := json.NewDecoder(res.Body).Decode(&slice); err != nil {
		t.Fatal(err)
	}
	if slice.Agg.Count != 3 || slice.Agg.Mean < 0.49 || slice.Agg.Mean > 0.51 {
		t.Fatalf("/cube slice agg = %+v", slice.Agg)
	}
}

package qurator

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qurator/internal/annotstore"
	"qurator/internal/compiler"
	"qurator/internal/services"
)

// failingClear is a cache repository whose clear fails, as a durable
// cache on a failed disk, or a remote one during an outage, would.
type failingClear struct{ *annotstore.Repository }

func (failingClear) Clear() error { return errors.New("disk full") }

// TestExecuteViewUnclearedCache: a per-run cache that cannot be cleared
// stops a run that has no degraded mode. With one, the run goes on and
// every item's evidence carries the degraded marker.
func TestExecuteViewUnclearedCache(t *testing.T) {
	f, items := deployTestWorld(t)
	f.Repositories.Add(failingClear{annotstore.New("cache", false)})
	if _, err := f.ExecuteView(context.Background(), []byte(PaperViewXML), items); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("ExecuteView error = %v, want the clear failure", err)
	}

	f.SetResilience(Resilience{Degraded: DegradeQuarantine})
	out, err := f.ExecuteView(context.Background(), []byte(PaperViewXML), items)
	if err != nil {
		t.Fatalf("degraded ExecuteView: %v", err)
	}
	ann := out[compiler.OutputAnnotations]
	if ann == nil {
		t.Fatalf("outputs = %v", keysOf(out))
	}
	for _, it := range items {
		if !ann.Has(it, DegradedEvidence) {
			t.Errorf("%v lacks the degraded-evidence marker", it)
		}
	}
}

// TestExecuteViewRemoteEnrichmentFails: the view's cache lives on a node
// that stores annotations but answers its bulk enrichment route with 500.
// The run fails with that answer, not later with a QA's complaint about
// missing evidence; under a degraded mode it goes on, every item marked.
func TestExecuteViewRemoteEnrichmentFails(t *testing.T) {
	f, items := deployTestWorld(t)
	reg := annotstore.NewRegistry()
	reg.Add(annotstore.New("cache", false))
	repos := services.RepositoryHandler(reg)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/enrich") {
			http.Error(w, "backend on fire", http.StatusInternalServerError)
			return
		}
		repos.ServeHTTP(w, r)
	}))
	defer srv.Close()
	f.Repositories.Add(services.NewRemoteRepository(&services.Client{BaseURL: srv.URL}, "cache", false))

	_, err := f.ExecuteView(context.Background(), []byte(PaperViewXML), items)
	var se *services.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusInternalServerError || !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("ExecuteView error = %v, want the enrichment's *StatusError with status 500", err)
	}

	f.SetResilience(Resilience{Degraded: DegradeQuarantine})
	out, err := f.ExecuteView(context.Background(), []byte(PaperViewXML), items)
	if err != nil {
		t.Fatalf("degraded ExecuteView: %v", err)
	}
	ann := out[compiler.OutputAnnotations]
	if ann == nil {
		t.Fatalf("outputs = %v", keysOf(out))
	}
	for _, it := range items {
		if !ann.Has(it, DegradedEvidence) {
			t.Errorf("%v lacks the degraded-evidence marker", it)
		}
	}
}

package services

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

// These tests pin the repository proxy's behaviour when the far side
// misbehaves: every failure mode must surface as a typed error —
// *StatusError for non-2xx answers, *DecodeError for malformed or
// truncated bodies — either on the method's own error return or, for
// the error-less annotstore.Store methods (Get, Items, Len), via
// LastError. A wire
// failure must never be silently indistinguishable from "no data".

func brokenServer(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return &Client{BaseURL: srv.URL}
}

func sampleAnnotation() annotstore.Annotation {
	return annotstore.Annotation{
		Item: item(0), Type: ontology.HitRatio, Value: evidence.Float(0.5),
	}
}

func TestRemoteRepositoryNon2xxSurfacesStatusError(t *testing.T) {
	client := brokenServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend on fire", http.StatusInternalServerError)
	})
	remote := NewRemoteRepository(client, "default", true)

	var se *StatusError

	if _, ok := remote.Get(item(0), ontology.HitRatio); ok {
		t.Error("Get against a 500 server should miss")
	}
	if err := remote.LastError(); !errors.As(err, &se) || se.Status != 500 {
		t.Errorf("Get LastError = %v, want *StatusError with status 500", err)
	}

	if err := remote.Put(sampleAnnotation()); !errors.As(err, &se) || se.Status != 500 {
		t.Errorf("Put error = %v, want *StatusError with status 500", err)
	}

	m := evidence.NewMap(item(0))
	n, err := remote.Enrich(m, []rdf.Term{ontology.HitRatio})
	if n != 0 {
		t.Errorf("Enrich against a 500 server added %d", n)
	}
	if !errors.As(err, &se) || se.Status != 500 {
		t.Errorf("Enrich error = %v, want *StatusError with status 500", err)
	}

	if got := remote.Items(); got != nil {
		t.Errorf("Items against a 500 server = %v", got)
	}
	if err := remote.LastError(); !errors.As(err, &se) {
		t.Errorf("Items LastError = %v, want *StatusError", err)
	}

	if n := remote.Len(); n != 0 {
		t.Errorf("Len against a 500 server = %d", n)
	}
	if _, err := remote.Query("ASK { ?a ?b ?c . }"); !errors.As(err, &se) {
		t.Errorf("Query error = %v, want *StatusError", err)
	}
	if _, err := client.ScavengeRepositories(context.Background()); !errors.As(err, &se) {
		t.Errorf("ScavengeRepositories error = %v, want *StatusError", err)
	}
}

func TestRemoteRepositoryMalformedXMLSurfacesDecodeError(t *testing.T) {
	client := brokenServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/xml")
		io.WriteString(w, `<Annotati{{{ not xml at all`)
	})
	remote := NewRemoteRepository(client, "default", true)

	var de *DecodeError

	if _, ok := remote.Get(item(0), ontology.HitRatio); ok {
		t.Error("Get of garbage XML should miss")
	}
	if err := remote.LastError(); !errors.As(err, &de) {
		t.Errorf("Get LastError = %v, want *DecodeError", err)
	}

	m := evidence.NewMap(item(0))
	n, err := remote.Enrich(m, []rdf.Term{ontology.HitRatio})
	if n != 0 {
		t.Errorf("Enrich of garbage XML added %d", n)
	}
	if !errors.As(err, &de) {
		t.Errorf("Enrich error = %v, want *DecodeError", err)
	}

	if _, err := remote.Query("ASK { ?a ?b ?c . }"); !errors.As(err, &de) {
		t.Errorf("Query error = %v, want *DecodeError", err)
	}
	if _, err := client.ScavengeRepositories(context.Background()); !errors.As(err, &de) {
		t.Errorf("ScavengeRepositories error = %v, want *DecodeError", err)
	}
}

func TestRemoteRepositoryMidBodyResetSurfacesDecodeError(t *testing.T) {
	// The handler promises 4096 bytes, writes 16, and returns; the server
	// tears the connection down mid-body and the client's read ends in an
	// unexpected EOF. That must surface as a typed decode failure, not an
	// empty-but-"successful" result.
	client := brokenServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		w.Header().Set("Content-Type", "application/xml")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "<Annotations><an")
	})
	remote := NewRemoteRepository(client, "default", true)

	if _, ok := remote.Get(item(0), ontology.HitRatio); ok {
		t.Error("Get over a reset connection should miss")
	}
	err := remote.LastError()
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("Get LastError = %v, want *DecodeError", err)
	}
	if !errors.Is(de.Err, io.ErrUnexpectedEOF) {
		t.Errorf("underlying cause = %v, want unexpected EOF", de.Err)
	}

	if _, err := remote.Query("ASK { ?a ?b ?c . }"); !errors.As(err, &de) {
		t.Errorf("Query error = %v, want *DecodeError", err)
	}
}

func TestRemoteRepositoryCleanMissClearsLastError(t *testing.T) {
	// A 404 on the annotation route is a real answer ("no such
	// annotation"), not a failure: it must clear any sticky error so a
	// recovered repository reads as healthy again.
	fail := true
	client := brokenServer(t, func(w http.ResponseWriter, r *http.Request) {
		if fail {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, "no such annotation", http.StatusNotFound)
	})
	remote := NewRemoteRepository(client, "default", true)

	remote.Get(item(0), ontology.HitRatio)
	if remote.LastError() == nil {
		t.Fatal("503 should record an error")
	}
	fail = false
	if _, ok := remote.Get(item(0), ontology.HitRatio); ok {
		t.Error("404 should miss")
	}
	if err := remote.LastError(); err != nil {
		t.Errorf("clean 404 miss should clear LastError, got %v", err)
	}
}

// failingClear is a repository whose durable clear fails.
type failingClear struct{ *annotstore.Repository }

func (failingClear) Clear() error { return errors.New("disk full") }

// TestRemoteClearReportsFailure: a clear that fails on the hosting node
// answers 500, and the remote proxy's Clear returns it; ClearCaches on a
// local registry returns the same failure.
func TestRemoteClearReportsFailure(t *testing.T) {
	reg := annotstore.NewRegistry()
	reg.Add(failingClear{annotstore.New("broken", false)})
	srv := httptest.NewServer(RepositoryHandler(reg))
	defer srv.Close()

	remote := NewRemoteRepository(&Client{BaseURL: srv.URL}, "broken", false)
	var se *StatusError
	if err := remote.Clear(); !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
		t.Errorf("remote Clear = %v, want *StatusError with status 500", err)
	}
	if err := reg.ClearCaches(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("ClearCaches = %v, want the clear failure", err)
	}
}

// failingEnrich is a repository whose lookups fail.
type failingEnrich struct{ *annotstore.Repository }

func (failingEnrich) Enrich(*evidence.Map, []rdf.Term) (int, error) {
	return 0, errors.New("index unavailable")
}

// TestRemoteEnrichReportsFailure: an enrichment that fails on the hosting
// node answers 500, and the remote proxy's Enrich returns it.
func TestRemoteEnrichReportsFailure(t *testing.T) {
	reg := annotstore.NewRegistry()
	reg.Add(failingEnrich{annotstore.New("broken", true)})
	srv := httptest.NewServer(RepositoryHandler(reg))
	defer srv.Close()

	remote := NewRemoteRepository(&Client{BaseURL: srv.URL}, "broken", true)
	var se *StatusError
	_, err := remote.Enrich(evidence.NewMap(item(0)), []rdf.Term{ontology.HitRatio})
	if !errors.As(err, &se) || se.Status != http.StatusInternalServerError || !strings.Contains(se.Body, "index unavailable") {
		t.Errorf("remote Enrich = %v, want *StatusError with status 500 naming the failure", err)
	}
}

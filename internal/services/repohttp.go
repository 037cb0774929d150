package services

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/rdf"
	"qurator/internal/resilience"
	"qurator/internal/sparql"
)

// This file puts the annotation repositories themselves on the wire,
// completing the paper's Figure 5 deployment: the data layer ("a
// collection of quality annotation repositories ... all accessed through
// the same read/write API") becomes reachable from other hosts, so a
// quality workflow can enrich against a peer's metadata store.
//
// Surface (rooted at the host):
//
//	GET    /repositories                      list stores
//	GET    /repositories/{name}/items         annotated items
//	GET    /repositories/{name}/annotation    one value (?item=&type=)
//	POST   /repositories/{name}/annotations   batch put (AnnotationsXML body)
//	DELETE /repositories/{name}/annotations   clear
//	POST   /repositories/{name}/enrich        bulk (data, types) lookup
//	POST   /repositories/{name}/sparql        query (text body)

// RepoInfo describes one hosted repository.
type RepoInfo struct {
	Name       string `xml:"name,attr"`
	Persistent bool   `xml:"persistent,attr"`
	Len        int    `xml:"len,attr"`
}

// AnnotationXML is the wire form of one annotation.
type AnnotationXML struct {
	Item        string `xml:"item,attr"`
	Type        string `xml:"type,attr"`
	Kind        string `xml:"kind,attr"`
	Value       string `xml:"value,attr"`
	Source      string `xml:"source,attr,omitempty"`
	EntityClass string `xml:"entityClass,attr,omitempty"`
}

// AnnotationsXML is a batch of annotations.
type AnnotationsXML struct {
	XMLName     xml.Name        `xml:"Annotations"`
	Annotations []AnnotationXML `xml:"annotation"`
}

func encodeAnnotation(a annotstore.Annotation) AnnotationXML {
	return AnnotationXML{
		Item:        a.Item.Value(),
		Type:        a.Type.Value(),
		Kind:        a.Value.Kind().String(),
		Value:       encodeValue(a.Value),
		Source:      a.Source.Value(),
		EntityClass: a.EntityClass.Value(),
	}
}

func decodeAnnotation(x AnnotationXML) (annotstore.Annotation, error) {
	if x.Item == "" || x.Type == "" {
		return annotstore.Annotation{}, fmt.Errorf("services: annotation needs item and type")
	}
	v, err := decodeValue(x.Kind, x.Value)
	if err != nil {
		return annotstore.Annotation{}, err
	}
	a := annotstore.Annotation{
		Item:  rdf.IRI(x.Item),
		Type:  rdf.IRI(x.Type),
		Value: v,
	}
	if x.Source != "" {
		a.Source = rdf.IRI(x.Source)
	}
	if x.EntityClass != "" {
		a.EntityClass = rdf.IRI(x.EntityClass)
	}
	return a, nil
}

// ResultsXML is the wire form of a SPARQL result (terms in N-Triples
// syntax).
type ResultsXML struct {
	XMLName xml.Name    `xml:"Results"`
	Vars    []string    `xml:"vars>var"`
	Ok      bool        `xml:"ok,attr"`
	Rows    []ResultRow `xml:"result"`
}

// ResultRow is one solution.
type ResultRow struct {
	Bindings []ResultBinding `xml:"binding"`
}

// ResultBinding binds one variable to an N-Triples-rendered term.
type ResultBinding struct {
	Name string `xml:"name,attr"`
	Term string `xml:"term,attr"`
}

func encodeResults(r *sparql.Result) ResultsXML {
	out := ResultsXML{Vars: r.Vars, Ok: r.Ok}
	for _, b := range r.Bindings {
		var row ResultRow
		for _, v := range r.Vars {
			if t, ok := b[v]; ok {
				row.Bindings = append(row.Bindings, ResultBinding{Name: v, Term: t.String()})
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func decodeResults(x ResultsXML) (*sparql.Result, error) {
	r := &sparql.Result{Vars: x.Vars, Ok: x.Ok}
	for _, row := range x.Rows {
		b := sparql.Binding{}
		for _, rb := range row.Bindings {
			t, err := rdf.ParseTerm(rb.Term)
			if err != nil {
				return nil, fmt.Errorf("services: bad term in results: %w", err)
			}
			b[rb.Name] = t
		}
		r.Bindings = append(r.Bindings, b)
	}
	return r, nil
}

// RepositoryHandler serves a repository registry over HTTP.
func RepositoryHandler(reg *annotstore.Registry) http.Handler {
	mux := http.NewServeMux()

	writeXML := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/xml")
		if err := xml.NewEncoder(w).Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	store := func(w http.ResponseWriter, r *http.Request) (annotstore.Store, bool) {
		name := r.PathValue("name")
		s, ok := reg.Get(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown repository %q", name), http.StatusNotFound)
			return nil, false
		}
		return s, true
	}

	mux.HandleFunc("GET /repositories", func(w http.ResponseWriter, r *http.Request) {
		var list struct {
			XMLName xml.Name   `xml:"Repositories"`
			Repos   []RepoInfo `xml:"Repository"`
		}
		for _, name := range reg.Names() {
			s := reg.MustGet(name)
			list.Repos = append(list.Repos, RepoInfo{Name: s.Name(), Persistent: s.Persistent(), Len: s.Len()})
		}
		writeXML(w, list)
	})

	mux.HandleFunc("GET /repositories/{name}/items", func(w http.ResponseWriter, r *http.Request) {
		s, ok := store(w, r)
		if !ok {
			return
		}
		var ds DataSet
		for _, it := range s.Items() {
			ds.Items = append(ds.Items, ItemRef{URI: it.Value()})
		}
		writeXML(w, ds)
	})

	mux.HandleFunc("GET /repositories/{name}/annotation", func(w http.ResponseWriter, r *http.Request) {
		s, ok := store(w, r)
		if !ok {
			return
		}
		item, typ := r.URL.Query().Get("item"), r.URL.Query().Get("type")
		if item == "" || typ == "" {
			http.Error(w, "item and type query parameters are required", http.StatusBadRequest)
			return
		}
		v, found := s.Get(rdf.IRI(item), rdf.IRI(typ))
		if !found {
			http.Error(w, "no such annotation", http.StatusNotFound)
			return
		}
		writeXML(w, AnnotationXML{Item: item, Type: typ, Kind: v.Kind().String(), Value: encodeValue(v)})
	})

	mux.HandleFunc("POST /repositories/{name}/annotations", func(w http.ResponseWriter, r *http.Request) {
		s, ok := store(w, r)
		if !ok {
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var batch AnnotationsXML
		if err := xml.Unmarshal(body, &batch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for i, x := range batch.Annotations {
			a, err := decodeAnnotation(x)
			if err == nil {
				err = s.Put(a)
			}
			if err != nil {
				http.Error(w, fmt.Sprintf("annotation %d: %v", i, err), http.StatusUnprocessableEntity)
				return
			}
		}
		fmt.Fprintf(w, "%d", len(batch.Annotations))
	})

	mux.HandleFunc("DELETE /repositories/{name}/annotations", func(w http.ResponseWriter, r *http.Request) {
		s, ok := store(w, r)
		if !ok {
			return
		}
		if err := s.Clear(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /repositories/{name}/enrich", func(w http.ResponseWriter, r *http.Request) {
		s, ok := store(w, r)
		if !ok {
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := UnmarshalEnvelope(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m, err := req.Map()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		typesParam, _ := req.Config.Get("types")
		var types []rdf.Term
		for _, t := range strings.Split(typesParam, ",") {
			if t = strings.TrimSpace(t); t != "" {
				types = append(types, rdf.IRI(t))
			}
		}
		if _, err := s.Enrich(m, types); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := NewEnvelope(m)
		data, err := resp.Marshal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		w.Write(data)
	})

	mux.HandleFunc("GET /repositories/{name}/graph", func(w http.ResponseWriter, r *http.Request) {
		s, ok := store(w, r)
		if !ok {
			return
		}
		// Human-readable Turtle dump; only local repositories expose
		// their raw graph.
		local, ok := s.(*annotstore.Repository)
		if !ok {
			http.Error(w, "repository does not expose its graph", http.StatusNotImplemented)
			return
		}
		w.Header().Set("Content-Type", "text/turtle")
		if err := local.WriteTurtle(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("POST /repositories/{name}/sparql", func(w http.ResponseWriter, r *http.Request) {
		s, ok := store(w, r)
		if !ok {
			return
		}
		query, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := s.Query(string(query))
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		writeXML(w, encodeResults(res))
	})

	return mux
}

// RemoteRepository is an annotstore.Store backed by a repository hosted on
// another Qurator node.
type RemoteRepository struct {
	client     *Client
	name       string
	persistent bool

	mu      sync.Mutex
	lastErr error
}

// setErr records a failure from a Store method whose signature cannot
// carry an error (Get, Items, Len), so callers can
// distinguish "no annotation" from "the wire failed".
func (r *RemoteRepository) setErr(err error) {
	r.mu.Lock()
	r.lastErr = err
	r.mu.Unlock()
}

// LastError returns the most recent transport/decode failure seen by an
// error-less Store method (typed: *StatusError, *DecodeError, or a
// wrapped transport error), or nil. Reading does not clear it; a
// subsequent successful call does.
func (r *RemoteRepository) LastError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// NewRemoteRepository returns a store proxy for a named repository on the
// client's host. The persistent flag mirrors the remote store's (used by
// ClearCaches on the local registry).
func NewRemoteRepository(client *Client, name string, persistent bool) *RemoteRepository {
	return &RemoteRepository{client: client, name: name, persistent: persistent}
}

// ScavengeRepositories discovers the repositories hosted at the client's
// base URL, returning proxies ready to Add to a local registry.
func (c *Client) ScavengeRepositories(ctx context.Context) ([]*RemoteRepository, error) {
	var list struct {
		Repos []RepoInfo `xml:"Repository"`
	}
	if err := c.getXML(ctx, "/repositories", &list); err != nil {
		return nil, err
	}
	out := make([]*RemoteRepository, len(list.Repos))
	for i, info := range list.Repos {
		out[i] = NewRemoteRepository(c, info.Name, info.Persistent)
	}
	return out, nil
}

func (c *Client) getXML(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &StatusError{Method: http.MethodGet, Path: path,
			Status: resp.StatusCode, Body: strings.TrimSpace(string(body))}
	}
	if err := xml.NewDecoder(resp.Body).Decode(v); err != nil {
		return &DecodeError{Path: path, Err: err}
	}
	return nil
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// do performs one request; idempotent marks it replayable for the
// resilient transport (reads and set-semantic deletes — never annotation
// writes).
func (c *Client) do(ctx context.Context, method, path string, body []byte, wantStatus int, idempotent bool) ([]byte, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), reader)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/xml")
	}
	if idempotent {
		resilience.MarkIdempotent(req)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, &DecodeError{Path: path, Err: err}
	}
	if resp.StatusCode != wantStatus {
		return data, &StatusError{Method: method, Path: path,
			Status: resp.StatusCode, Body: strings.TrimSpace(string(data))}
	}
	return data, nil
}

// Name implements annotstore.Store.
func (r *RemoteRepository) Name() string { return r.name }

// Persistent implements annotstore.Store.
func (r *RemoteRepository) Persistent() bool { return r.persistent }

// Put implements annotstore.Store. The write is deliberately not marked
// idempotent: the transport must never replay it (see remoteService).
func (r *RemoteRepository) Put(a annotstore.Annotation) error {
	batch := AnnotationsXML{Annotations: []AnnotationXML{encodeAnnotation(a)}}
	body, err := xml.Marshal(batch)
	if err != nil {
		return err
	}
	_, err = r.client.do(context.Background(), http.MethodPost,
		"/repositories/"+r.name+"/annotations", body, http.StatusOK, false)
	return err
}

// Get implements annotstore.Store. A "no" answer caused by a transport
// or decode failure (rather than an absent annotation) is recorded and
// retrievable via LastError.
func (r *RemoteRepository) Get(item evidence.Item, typ rdf.Term) (evidence.Value, bool) {
	path := "/repositories/" + r.name + "/annotation?item=" + queryEscape(item.Value()) +
		"&type=" + queryEscape(typ.Value())
	data, err := r.client.do(context.Background(), http.MethodGet, path, nil, http.StatusOK, true)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Status == http.StatusNotFound {
			r.setErr(nil) // a clean "no such annotation" answer
		} else {
			r.setErr(err)
		}
		return evidence.Null, false
	}
	var x AnnotationXML
	if err := xml.Unmarshal(data, &x); err != nil {
		r.setErr(&DecodeError{Path: path, Err: err})
		return evidence.Null, false
	}
	v, err := decodeValue(x.Kind, x.Value)
	if err != nil {
		r.setErr(&DecodeError{Path: path, Err: err})
		return evidence.Null, false
	}
	r.setErr(nil)
	return v, true
}

// Enrich implements annotstore.Store with a single bulk round trip. A
// transport failure, a non-2xx answer (*StatusError) or an unreadable
// one (*DecodeError) is returned, with no value added.
func (r *RemoteRepository) Enrich(m *evidence.Map, types []rdf.Term) (int, error) {
	req := NewEnvelope(evidence.NewMap(m.Items()...))
	var typeStrs []string
	for _, t := range types {
		typeStrs = append(typeStrs, t.Value())
	}
	req.Config.Set("types", strings.Join(typeStrs, ","))
	body, err := req.Marshal()
	if err != nil {
		return 0, err
	}
	path := "/repositories/" + r.name + "/enrich"
	data, err := r.client.do(context.Background(), http.MethodPost, path, body, http.StatusOK, true)
	if err != nil {
		return 0, err
	}
	resp, err := UnmarshalEnvelope(data)
	if err != nil {
		return 0, &DecodeError{Path: path, Err: err}
	}
	enriched, err := resp.Map()
	if err != nil {
		return 0, &DecodeError{Path: path, Err: err}
	}
	n := 0
	for _, item := range enriched.Items() {
		for _, typ := range types {
			if v := enriched.Get(item, typ); !v.IsNull() {
				m.Set(item, typ, v)
				n++
			}
		}
	}
	return n, nil
}

// Items implements annotstore.Store.
func (r *RemoteRepository) Items() []evidence.Item {
	var ds DataSet
	if err := r.client.getXML(context.Background(), "/repositories/"+r.name+"/items", &ds); err != nil {
		r.setErr(err)
		return nil
	}
	r.setErr(nil)
	out := make([]evidence.Item, len(ds.Items))
	for i, it := range ds.Items {
		out[i] = rdf.IRI(it.URI)
	}
	return out
}

// Len implements annotstore.Store (one round trip via the listing).
func (r *RemoteRepository) Len() int {
	var list struct {
		Repos []RepoInfo `xml:"Repository"`
	}
	if err := r.client.getXML(context.Background(), "/repositories", &list); err != nil {
		r.setErr(err)
		return 0
	}
	r.setErr(nil)
	for _, info := range list.Repos {
		if info.Name == r.name {
			return info.Len
		}
	}
	return 0
}

// Clear implements annotstore.Store. Clearing is set-semantic (clearing
// twice equals clearing once), so the call is marked replayable.
func (r *RemoteRepository) Clear() error {
	_, err := r.client.do(context.Background(), http.MethodDelete,
		"/repositories/"+r.name+"/annotations", nil, http.StatusNoContent, true)
	return err
}

// Query implements annotstore.Store. SPARQL evaluation is read-only, so
// the call is marked replayable.
func (r *RemoteRepository) Query(query string) (*sparql.Result, error) {
	path := "/repositories/" + r.name + "/sparql"
	data, err := r.client.do(context.Background(), http.MethodPost, path, []byte(query), http.StatusOK, true)
	if err != nil {
		return nil, err
	}
	var x ResultsXML
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, &DecodeError{Path: path, Err: err}
	}
	return decodeResults(x)
}

func queryEscape(s string) string {
	// Minimal escaping for the characters that appear in IRIs/URNs.
	replacer := strings.NewReplacer("%", "%25", "&", "%26", "+", "%2B", " ", "%20", "#", "%23", "?", "%3F")
	return replacer.Replace(s)
}

var _ annotstore.Store = (*RemoteRepository)(nil)

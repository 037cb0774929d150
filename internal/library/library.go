// Package library implements the paper's future-work item (iv): "reuse of
// quality components [and] views defined by peers within a scientific
// community". It is a registry of published quality views with authorship
// and quality-dimension metadata, searchable by the evidence a prospective
// user actually has — operationalising the paper's applicability rule
// ("a view is applicable to any data set for which evidence values are
// available for the required evidence types mentioned in the input", §5.1)
// — and serialisable to RDF so libraries can be exchanged like any other
// Qurator metadata.
package library

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"qurator/internal/ontology"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
)

// Entry is one published quality view.
type Entry struct {
	// Name is the library-unique identifier.
	Name string
	// Author identifies the publishing peer.
	Author string
	// Description is free text.
	Description string
	// Dimensions classify the view under IQ quality properties
	// (q:Accuracy, q:Credibility, ...) to foster reuse (paper §3).
	Dimensions []rdf.Term
	// ViewXML is the view source.
	ViewXML string
	// Published is the publication time (UTC).
	Published time.Time

	// Derived on publish:

	// RequiredEvidence are the evidence types a consumer must supply —
	// QA inputs not produced by the view's own annotators.
	RequiredEvidence []rdf.Term
	// ProducedEvidence are the evidence types the view's annotators
	// compute.
	ProducedEvidence []rdf.Term
	// OperatorClasses are the QA/annotator classes that must be bound at
	// the consumer's site.
	OperatorClasses []rdf.Term
}

// Library is a concurrent registry of published views, validated against
// one IQ model.
type Library struct {
	mu      sync.RWMutex
	model   *ontology.Ontology
	entries map[string]*Entry
}

// New returns an empty library over the given IQ model.
func New(model *ontology.Ontology) *Library {
	return &Library{model: model, entries: make(map[string]*Entry)}
}

// Publish validates the entry's view against the IQ model, derives its
// evidence requirements, and stores it. Publishing under an existing name
// replaces the previous version.
func (l *Library) Publish(e Entry) (*Entry, error) {
	if e.Name == "" {
		return nil, fmt.Errorf("library: entry without name")
	}
	if e.ViewXML == "" {
		return nil, fmt.Errorf("library: entry %q without view source", e.Name)
	}
	for _, d := range e.Dimensions {
		if !l.model.IsInstanceOf(d, ontology.QualityProperty) {
			return nil, fmt.Errorf("library: %v is not a quality dimension", d)
		}
	}
	view, err := qvlang.Parse([]byte(e.ViewXML))
	if err != nil {
		return nil, fmt.Errorf("library: entry %q: %w", e.Name, err)
	}
	resolved, err := qvlang.Resolve(view, l.model)
	if err != nil {
		return nil, fmt.Errorf("library: entry %q: %w", e.Name, err)
	}

	produced := map[rdf.Term]bool{}
	var classes []rdf.Term
	for _, ann := range resolved.Annotators {
		classes = append(classes, ann.Type)
		for _, p := range ann.Provides {
			produced[p.Evidence] = true
		}
	}
	required := map[rdf.Term]bool{}
	for _, as := range resolved.Assertions {
		classes = append(classes, as.Type)
		for _, in := range as.Inputs {
			if !produced[in.Evidence] {
				required[in.Evidence] = true
			}
		}
	}
	e.RequiredEvidence = sortedTerms(required)
	e.ProducedEvidence = sortedTerms(produced)
	e.OperatorClasses = dedupTerms(classes)
	if e.Published.IsZero() {
		e.Published = time.Now().UTC()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	cp := e
	l.entries[e.Name] = &cp
	return &cp, nil
}

// Get retrieves a published entry by name.
func (l *Library) Get(name string) (*Entry, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	e, ok := l.entries[name]
	if !ok {
		return nil, false
	}
	cp := *e
	return &cp, true
}

// List returns all entries sorted by name.
func (l *Library) List() []*Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]*Entry, 0, len(l.entries))
	for _, e := range l.entries {
		cp := *e
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FindApplicable returns the views runnable given the evidence types the
// caller can supply: every required evidence type must be available
// (subsumption counts — offering a subclass of a required type
// satisfies it).
func (l *Library) FindApplicable(available []rdf.Term) []*Entry {
	avail := make(map[rdf.Term]bool, len(available))
	for _, a := range available {
		avail[a] = true
	}
	satisfied := func(req rdf.Term) bool {
		if avail[req] {
			return true
		}
		for a := range avail {
			if l.model.IsSubClassOf(a, req) {
				return true
			}
		}
		return false
	}
	var out []*Entry
	for _, e := range l.List() {
		ok := true
		for _, req := range e.RequiredEvidence {
			if !satisfied(req) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// FindByDimension returns the views classified under the given quality
// dimension.
func (l *Library) FindByDimension(dim rdf.Term) []*Entry {
	var out []*Entry
	for _, e := range l.List() {
		for _, d := range e.Dimensions {
			if d == dim {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// RDF vocabulary for library exchange.
var (
	sharedViewClass = ontology.Q("SharedQualityView")
	propAuthor      = ontology.Q("author")
	propDescription = ontology.Q("description")
	propViewSource  = ontology.Q("viewSource")
	propPublished   = ontology.Q("publishedAt")
	propDimension   = ontology.Q("addressesDimension")
)

// ToGraph serialises the library as RDF for exchange between peers.
func (l *Library) ToGraph() *rdf.Graph {
	g := rdf.NewGraph()
	typeIRI := rdf.IRI(rdf.RDFType)
	for _, e := range l.List() {
		node := ontology.Q("view/" + e.Name)
		g.MustAdd(rdf.T(node, typeIRI, sharedViewClass))
		g.MustAdd(rdf.T(node, rdf.IRI(rdf.RDFSLabel), rdf.Literal(e.Name)))
		g.MustAdd(rdf.T(node, propAuthor, rdf.Literal(e.Author)))
		if e.Description != "" {
			g.MustAdd(rdf.T(node, propDescription, rdf.Literal(e.Description)))
		}
		g.MustAdd(rdf.T(node, propViewSource, rdf.Literal(e.ViewXML)))
		g.MustAdd(rdf.T(node, propPublished, rdf.Literal(e.Published.Format(time.RFC3339))))
		for _, d := range e.Dimensions {
			g.MustAdd(rdf.T(node, propDimension, d))
		}
	}
	return g
}

// FromGraph loads a library exchanged as RDF, re-validating every view
// against the local IQ model (a peer's view may reference classes the
// local model lacks; those entries are rejected with an error naming the
// view).
func FromGraph(g *rdf.Graph, model *ontology.Ontology) (*Library, error) {
	l := New(model)
	typeIRI := rdf.IRI(rdf.RDFType)
	for _, t := range g.Match(rdf.Term{}, typeIRI, sharedViewClass) {
		node := t.Subject
		name := g.FirstObject(node, rdf.IRI(rdf.RDFSLabel)).Value()
		src := g.FirstObject(node, propViewSource).Value()
		e := Entry{
			Name:        name,
			Author:      g.FirstObject(node, propAuthor).Value(),
			Description: g.FirstObject(node, propDescription).Value(),
			ViewXML:     src,
		}
		if ts := g.FirstObject(node, propPublished).Value(); ts != "" {
			if parsed, err := time.Parse(time.RFC3339, ts); err == nil {
				e.Published = parsed
			}
		}
		e.Dimensions = g.Objects(node, propDimension)
		if _, err := l.Publish(e); err != nil {
			return nil, fmt.Errorf("library: importing %q: %w", name, err)
		}
	}
	return l, nil
}

func sortedTerms(set map[rdf.Term]bool) []rdf.Term {
	out := make([]rdf.Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return rdf.CompareTerms(out[i], out[j]) < 0 })
	return out
}

func dedupTerms(ts []rdf.Term) []rdf.Term {
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return rdf.CompareTerms(out[i], out[j]) < 0 })
	return out
}

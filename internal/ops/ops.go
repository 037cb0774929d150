// Package ops implements Qurator's abstract quality operators (paper §4.1,
// Figure 4): Quality Assertion, Annotation, Data Enrichment, and the
// condition/action operators (data filtering and data splitting). These are
// the building blocks that quality views compose; the compiler
// (internal/compiler) maps each to a workflow processor backed by a
// service (internal/services).
//
// All operators exchange annotation maps (internal/evidence.Map): the data
// set D is the map's ordered item list, and evidence values, QA score tags
// and classifications are the map's columns.
package ops

import (
	"fmt"

	"qurator/internal/annotstore"
	"qurator/internal/condition"
	"qurator/internal/evidence"
	"qurator/internal/rdf"
)

// QualityAssertion is the QA operator type: a decision model that
// associates class values or scores with each data item based on a vector
// of evidence values. QAs are collection-scoped — they may consult the
// whole map (e.g. classification thresholds derived from the score
// distribution) — and, to the extent the decision depends only on
// evidence, they are reusable across data sets (paper §4.1).
type QualityAssertion interface {
	// Class returns the QA's class in the IQ ontology (a subclass of
	// q:QualityAssertion).
	Class() rdf.Term
	// Requires lists the evidence types the QA reads.
	Requires() []rdf.Term
	// Provides lists the map keys the QA writes (score tags and/or
	// classification models).
	Provides() []rdf.Term
	// Assert computes the QA over the whole collection, augmenting the
	// input map with new mappings {d → (tag, value)} / {d → (model, cl)}.
	Assert(m *evidence.Map) error
}

// ItemWise is an optional interface for QualityAssertion implementations
// that declare their decision for each item depends only on that item's
// evidence row — never on the rest of the collection. The enactment data
// plane may shard item-wise operators across workers without changing
// their output; collection-scoped operators (e.g. the §5.1 classifier,
// whose thresholds derive from the whole score distribution) must see the
// entire map at once. Operators that do not implement ItemWise are
// treated as collection-scoped — the conservative default.
type ItemWise interface {
	ItemWise() bool
}

// Annotator is the Annotation operator type: it computes a new association
// map of evidence values for its declared evidence types and stores it in
// a repository. Annotators are user-defined, domain- AND data-specific
// (paper §4.1: they offer few opportunities for reuse).
type Annotator interface {
	// Class returns the annotator's class in the IQ ontology (a subclass
	// of q:AnnotationFunction).
	Class() rdf.Term
	// Provides lists the evidence types the annotator computes.
	Provides() []rdf.Term
	// Annotate computes evidence for the items and writes it to repo.
	Annotate(items []evidence.Item, repo annotstore.Store) error
}

// AnnotatorFunc adapts a function to the Annotator interface.
type AnnotatorFunc struct {
	ClassIRI rdf.Term
	Types    []rdf.Term
	Fn       func(items []evidence.Item, repo annotstore.Store) error
}

// Class implements Annotator.
func (a AnnotatorFunc) Class() rdf.Term { return a.ClassIRI }

// Provides implements Annotator.
func (a AnnotatorFunc) Provides() []rdf.Term { return a.Types }

// Annotate implements Annotator. A nil Fn annotates nothing — the stub
// shape used when evidence is preloaded or arrives inline with the items
// (cmd/qvrun's CSV mode, the streaming enactor's NDJSON mode).
func (a AnnotatorFunc) Annotate(items []evidence.Item, repo annotstore.Store) error {
	if a.Fn == nil {
		return nil
	}
	return a.Fn(items, repo)
}

// EvidenceSource names the repository holding values of one evidence type.
type EvidenceSource struct {
	Type       rdf.Term
	Repository annotstore.Store
}

// DataEnrichment is the pre-defined, non-extensible operator that fetches
// pre-computed annotations from repositories, keyed by (d ∈ D, e ∈ E)
// (paper §4.1). The quality-view compiler configures a single enrichment
// operator with the evidence-type → repository association it derives from
// the annotator and QA declarations (paper §6.1).
type DataEnrichment struct {
	Sources []EvidenceSource
}

// Enrich fills the map with stored values for every configured evidence
// type, returning the number of values added. It stops at the first
// repository that fails to answer and returns its failure.
func (d *DataEnrichment) Enrich(m *evidence.Map) (int, error) {
	n := 0
	for _, src := range d.Sources {
		if src.Repository == nil {
			return n, fmt.Errorf("ops: enrichment source for %v has no repository", src.Type)
		}
		k, err := src.Repository.Enrich(m, []rdf.Term{src.Type})
		n += k
		if err != nil {
			return n, fmt.Errorf("ops: enrichment of %v from %s: %w", src.Type, src.Repository.Name(), err)
		}
	}
	return n, nil
}

// ErrorPolicy controls what a condition evaluation error (typically a
// missing evidence value) means during an action.
type ErrorPolicy int

const (
	// ErrorRejects treats an erroring condition as false for that item —
	// the item does not enter the group. This is the default: items
	// without the evidence a criterion needs are not acceptable under it.
	ErrorRejects ErrorPolicy = iota
	// ErrorFails aborts the action on the first evaluation error.
	ErrorFails
)

// Filter is the data-filtering action (§4.1): a single condition; items
// satisfying it are kept, the rest are discarded.
type Filter struct {
	Cond condition.Expr
	// Vars resolves condition identifiers to map keys.
	Vars condition.Bindings
	// OnError selects the error policy (default ErrorRejects).
	OnError ErrorPolicy
}

// Apply returns the filtered map (a new map; the input is unchanged).
func (f *Filter) Apply(m *evidence.Map) (*evidence.Map, error) {
	if f.Cond == nil {
		return nil, fmt.Errorf("ops: filter has no condition")
	}
	var kept []evidence.Item
	for _, item := range m.Items() {
		ok, err := f.Cond.Eval(&condition.Context{Amap: m, Item: item, Vars: f.Vars})
		if err != nil {
			if f.OnError == ErrorFails {
				return nil, fmt.Errorf("ops: filter condition on %v: %w", item, err)
			}
			continue
		}
		if ok {
			kept = append(kept, item)
		}
	}
	return m.Project(kept), nil
}

// SplitGroup is one named branch of a splitter.
type SplitGroup struct {
	Name string
	Cond condition.Expr
}

// Splitter is the data-splitting action (§4.1): it splits an input data
// set into groups D1..Dk (not necessarily disjoint — an item may satisfy
// several conditions) plus a default group holding the items that satisfy
// none.
type Splitter struct {
	Groups []SplitGroup
	// DefaultName names the k+1-th group (default "default").
	DefaultName string
	Vars        condition.Bindings
	OnError     ErrorPolicy
}

// SplitResult maps group names to their (Di, Amap_i) output pairs.
type SplitResult map[string]*evidence.Map

// Apply splits the map. Every output group carries the full evidence rows
// of its items.
func (s *Splitter) Apply(m *evidence.Map) (SplitResult, error) {
	if len(s.Groups) == 0 {
		return nil, fmt.Errorf("ops: splitter has no groups")
	}
	defaultName := s.DefaultName
	if defaultName == "" {
		defaultName = "default"
	}
	members := make(map[string][]evidence.Item, len(s.Groups)+1)
	for _, item := range m.Items() {
		matched := false
		for _, g := range s.Groups {
			ok, err := g.Cond.Eval(&condition.Context{Amap: m, Item: item, Vars: s.Vars})
			if err != nil {
				if s.OnError == ErrorFails {
					return nil, fmt.Errorf("ops: splitter condition %q on %v: %w", g.Name, item, err)
				}
				continue
			}
			if ok {
				members[g.Name] = append(members[g.Name], item)
				matched = true
			}
		}
		if !matched {
			members[defaultName] = append(members[defaultName], item)
		}
	}
	out := make(SplitResult, len(s.Groups)+1)
	for _, g := range s.Groups {
		out[g.Name] = m.Project(members[g.Name])
	}
	out[defaultName] = m.Project(members[defaultName])
	return out, nil
}

// TopK is the ranking-based retention action the paper mentions ("retain
// the top-k data items, relative to a custom ranking computed by a QA").
type TopK struct {
	// Key is the score tag to rank by (higher is better).
	Key rdf.Term
	K   int
}

// Apply returns a map with at most K items, ordered by descending score.
// Items lacking a numeric score rank below all scored items and are
// dropped first.
func (t *TopK) Apply(m *evidence.Map) (*evidence.Map, error) {
	if t.K < 0 {
		return nil, fmt.Errorf("ops: top-k with negative k")
	}
	items, scores := m.FloatColumn(t.Key)
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	// Stable selection: sort by score descending, preserving input order
	// on ties (the input is a ranked list already).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && scores[idx[j]] > scores[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	k := t.K
	if k > len(idx) {
		k = len(idx)
	}
	kept := make([]evidence.Item, k)
	for i := 0; i < k; i++ {
		kept[i] = items[idx[i]]
	}
	return m.Project(kept), nil
}

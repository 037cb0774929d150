package services

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"qurator/internal/annotstore"
	"qurator/internal/condition"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/rdf"
)

// Kind classifies a service by the abstract operator it implements.
type Kind string

// Service kinds, mirroring the §4.1 operator types.
const (
	KindAnnotation Kind = "annotation"
	KindAssertion  Kind = "quality-assertion"
	KindEnrichment Kind = "data-enrichment"
	KindAction     Kind = "action"
)

// Scope declares how much of the data set a service must see per
// invocation. Item-scoped services compute each item's result from that
// item's evidence row alone, so the data plane may shard their input into
// item chunks and merge the responses without changing the output.
// Collection-scoped services (e.g. the §5.1 statistical classifier, whose
// thresholds derive from the whole score distribution) must receive the
// entire map in one envelope.
type Scope string

// Service scopes.
const (
	ScopeItem       Scope = "item"
	ScopeCollection Scope = "collection"
)

// Info describes a deployed service — the WSDL-surrogate the registry and
// scavenger exchange.
type Info struct {
	// Name is the deployment name (unique per host).
	Name string `xml:"name,attr"`
	// Type is the IQ-ontology class IRI of the operator.
	Type string `xml:"type,attr"`
	// Kind is the abstract operator kind.
	Kind Kind `xml:"kind,attr"`
	// Scope declares the sharding contract; empty means ScopeCollection
	// (the conservative default — never shard a service that did not
	// declare item scope).
	Scope Scope `xml:"scope,attr,omitempty"`
	// Inputs and Outputs list evidence types / tags (IRIs).
	Inputs  []string `xml:"input,omitempty"`
	Outputs []string `xml:"output,omitempty"`
}

// QualityService is the single interface all Qurator services export
// (paper §5: "all QA services export the same WSDL interface").
type QualityService interface {
	Describe() Info
	Invoke(ctx context.Context, req *Envelope) (*Envelope, error)
}

func iriStrings(terms []rdf.Term) []string {
	out := make([]string, len(terms))
	for i, t := range terms {
		out[i] = t.Value()
	}
	return out
}

// scopeOf derives a service's scope from its operator: an ops.ItemWise
// declaration wins; otherwise def applies.
func scopeOf(op any, def Scope) Scope {
	if iw, ok := op.(ops.ItemWise); ok {
		if iw.ItemWise() {
			return ScopeItem
		}
		return ScopeCollection
	}
	return def
}

// AssertionService exposes an ops.QualityAssertion as a service: the
// request carries the enriched annotation map; the response carries the
// map augmented with the QA's tags/classifications.
type AssertionService struct {
	ServiceName string
	QA          ops.QualityAssertion
}

// Describe implements QualityService.
func (s *AssertionService) Describe() Info {
	return Info{
		Name: s.ServiceName,
		Type: s.QA.Class().Value(),
		Kind: KindAssertion,
		// QAs are collection-scoped unless they declare otherwise
		// (ops.ItemWise) — classification thresholds may derive from the
		// whole distribution.
		Scope:   scopeOf(s.QA, ScopeCollection),
		Inputs:  iriStrings(s.QA.Requires()),
		Outputs: iriStrings(s.QA.Provides()),
	}
}

// Invoke implements QualityService.
func (s *AssertionService) Invoke(_ context.Context, req *Envelope) (*Envelope, error) {
	m, err := req.Map()
	if err != nil {
		return nil, err
	}
	if err := s.QA.Assert(m); err != nil {
		return nil, fmt.Errorf("services: %s: %w", s.ServiceName, err)
	}
	resp := NewEnvelope(m)
	resp.Service = s.ServiceName
	return resp, nil
}

// AnnotatorService exposes an ops.Annotator. The request's data set names
// the items to annotate; the "repositoryRef" config parameter selects the
// target repository from the service's registry. Annotators return an
// empty map — they only write to repositories (paper §6.1: "their output
// is empty, since annotators only write to a repository").
type AnnotatorService struct {
	ServiceName  string
	Annotator    ops.Annotator
	Repositories *annotstore.Registry
}

// Describe implements QualityService.
func (s *AnnotatorService) Describe() Info {
	return Info{
		Name: s.ServiceName,
		Type: s.Annotator.Class().Value(),
		Kind: KindAnnotation,
		// Annotators are arbitrary user code over the whole batch (an
		// AnnotatorFunc may key evidence off batch position), so the
		// conservative default is collection scope; a genuinely item-wise
		// annotator opts into sharding via ops.ItemWise.
		Scope:   scopeOf(s.Annotator, ScopeCollection),
		Outputs: iriStrings(s.Annotator.Provides()),
	}
}

// Invoke implements QualityService.
func (s *AnnotatorService) Invoke(_ context.Context, req *Envelope) (*Envelope, error) {
	repoName, ok := req.Config.Get("repositoryRef")
	if !ok {
		repoName = "cache"
	}
	repo, ok := s.Repositories.Get(repoName)
	if !ok {
		return nil, fmt.Errorf("services: %s: unknown repository %q", s.ServiceName, repoName)
	}
	m, err := req.Map()
	if err != nil {
		return nil, err
	}
	if err := s.Annotator.Annotate(m.Items(), repo); err != nil {
		return nil, fmt.Errorf("services: %s: %w", s.ServiceName, err)
	}
	resp := &Envelope{Service: s.ServiceName}
	resp.SetMap(evidence.NewMap(m.Items()...))
	return resp, nil
}

// EnrichmentService exposes the pre-defined Data Enrichment operator. Its
// configuration associates evidence types with repositories via config
// parameters of the form "source:<evidence-IRI>" = "<repository name>",
// which is exactly the association the quality-view compiler derives
// (paper §6.1).
type EnrichmentService struct {
	ServiceName  string
	Repositories *annotstore.Registry
}

// Describe implements QualityService.
func (s *EnrichmentService) Describe() Info {
	// Enrichment fetches stored values keyed (d, e) — strictly per item.
	return Info{Name: s.ServiceName, Type: ontology.Q("DataEnrichment").Value(), Kind: KindEnrichment, Scope: ScopeItem}
}

// SourceParam builds the config parameter name associating an evidence
// type with a repository.
func SourceParam(evidenceType rdf.Term) string { return "source:" + evidenceType.Value() }

// Invoke implements QualityService.
func (s *EnrichmentService) Invoke(_ context.Context, req *Envelope) (*Envelope, error) {
	var de ops.DataEnrichment
	for _, p := range req.Config.Params {
		if !strings.HasPrefix(p.Name, "source:") {
			continue
		}
		typ := rdf.IRI(strings.TrimPrefix(p.Name, "source:"))
		repo, ok := s.Repositories.Get(p.Value)
		if !ok {
			return nil, fmt.Errorf("services: %s: unknown repository %q for %v", s.ServiceName, p.Value, typ)
		}
		de.Sources = append(de.Sources, ops.EvidenceSource{Type: typ, Repository: repo})
	}
	// Deterministic source order regardless of config order.
	sort.Slice(de.Sources, func(i, j int) bool {
		return rdf.CompareTerms(de.Sources[i].Type, de.Sources[j].Type) < 0
	})
	m, err := req.Map()
	if err != nil {
		return nil, err
	}
	if _, err := de.Enrich(m); err != nil {
		return nil, err
	}
	resp := NewEnvelope(m)
	resp.Service = s.ServiceName
	return resp, nil
}

// ActionService exposes the filter/splitter actions. Configuration:
//
//	operation      "filter" | "split" (also in Envelope.Operation)
//	condition      the filter condition (operation=filter)
//	group:<name>   one splitter branch condition per parameter
//	var:<ident>    identifier → map-key bindings for the conditions
//
// Conditions are parsed per invocation — they are exactly the part users
// edit between runs (paper §4).
type ActionService struct {
	ServiceName string
}

// Describe implements QualityService.
func (s *ActionService) Describe() Info {
	// Filter and split conditions evaluate one item's evidence at a time.
	return Info{Name: s.ServiceName, Type: ontology.Q("Action").Value(), Kind: KindAction, Scope: ScopeItem}
}

// VarParam builds the config parameter name binding a condition
// identifier to a map key.
func VarParam(ident string) string { return "var:" + ident }

func bindingsFromConfig(cfg Config) condition.Bindings {
	vars := condition.Bindings{}
	for _, p := range cfg.Params {
		if name, ok := strings.CutPrefix(p.Name, "var:"); ok {
			vars[name] = rdf.IRI(p.Value)
		}
	}
	return vars
}

// Invoke implements QualityService.
func (s *ActionService) Invoke(_ context.Context, req *Envelope) (*Envelope, error) {
	m, err := req.Map()
	if err != nil {
		return nil, err
	}
	vars := bindingsFromConfig(req.Config)
	op := req.Operation
	if op == "" {
		op, _ = req.Config.Get("operation")
	}
	switch op {
	case "filter", "":
		src, ok := req.Config.Get("condition")
		if !ok {
			return nil, fmt.Errorf("services: %s: filter without condition", s.ServiceName)
		}
		expr, err := condition.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("services: %s: %w", s.ServiceName, err)
		}
		out, err := (&ops.Filter{Cond: expr, Vars: vars}).Apply(m)
		if err != nil {
			return nil, err
		}
		resp := NewEnvelope(out)
		resp.Service = s.ServiceName
		resp.Operation = "filter"
		return resp, nil
	case "split":
		var groups []ops.SplitGroup
		var order []string
		for _, p := range req.Config.Params {
			name, ok := strings.CutPrefix(p.Name, "group:")
			if !ok {
				continue
			}
			expr, err := condition.Parse(p.Value)
			if err != nil {
				return nil, fmt.Errorf("services: %s: group %q: %w", s.ServiceName, name, err)
			}
			groups = append(groups, ops.SplitGroup{Name: name, Cond: expr})
			order = append(order, name)
		}
		split, err := (&ops.Splitter{Groups: groups, Vars: vars}).Apply(m)
		if err != nil {
			return nil, err
		}
		order = append(order, "default")
		resp := &Envelope{Service: s.ServiceName, Operation: "split"}
		resp.SetGroups(split, order)
		return resp, nil
	default:
		return nil, fmt.Errorf("services: %s: unknown operation %q", s.ServiceName, op)
	}
}

// Registry holds deployed services by name. It is the in-process analogue
// of Taverna's processor collection, and the scavenger's data source.
type Registry struct {
	mu       sync.RWMutex
	services map[string]QualityService
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{services: make(map[string]QualityService)}
}

// Add deploys a service, replacing any previous one with the same name.
func (r *Registry) Add(s QualityService) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.services[s.Describe().Name] = s
}

// Get looks up a service by name.
func (r *Registry) Get(name string) (QualityService, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.services[name]
	return s, ok
}

// List returns all service descriptions sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.services))
	for _, s := range r.services {
		out = append(out, s.Describe())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

var (
	_ QualityService = (*AssertionService)(nil)
	_ QualityService = (*AnnotatorService)(nil)
	_ QualityService = (*EnrichmentService)(nil)
	_ QualityService = (*ActionService)(nil)
)

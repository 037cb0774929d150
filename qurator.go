// Package qurator is the public API of the Qurator quality-view
// framework, a from-scratch Go implementation of "Quality Views:
// Capturing and Exploiting the User Perspective on Data Quality"
// (Missier, Embury, Greenwood, Preece, Jin — VLDB 2006).
//
// A quality view is a personalised lens over a data set: a declarative
// XML specification of quality annotators, quality assertions (QAs) and
// condition/action pairs, compiled into an executable workflow and
// optionally embedded into a host data-processing workflow. The framework
// supplies the semantic IQ model, annotation repositories, a service
// fabric, the view compiler and a Taverna-style enactment engine.
//
// Typical use:
//
//	f := qurator.New()
//	f.DeployAssertion("my-score", myQA)           // implement + deploy a QA
//	compiled, err := f.CompileView(viewXML)       // compile a quality view
//	out, err := compiled.Run(ctx, items)          // apply the lens
//
// See examples/quickstart for a complete runnable tour and
// internal/ispider for the paper's proteomics case study.
package qurator

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"qurator/internal/annotstore"
	"qurator/internal/binding"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/library"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/provenance"
	"qurator/internal/qa"
	"qurator/internal/qcache"
	"qurator/internal/qcube"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/services"
)

// Re-exported types: the vocabulary a framework user needs without
// reaching into internal packages.
type (
	// Framework wires the Qurator components: the IQ ontology, annotation
	// repositories, the service registry, and the semantic binding
	// registry that maps IQ operator classes to deployed services.
	Framework struct {
		// Model is the IQ ontology (user-extensible, paper §3).
		Model *ontology.Ontology
		// Repositories holds the annotation stores ("cache" per-run,
		// "default" persistent, plus any the user adds).
		Repositories *annotstore.Registry
		// Services is the deployed-service registry.
		Services *services.Registry
		// Bindings is the semantic binding registry (paper §6).
		Bindings *binding.Registry
		// Library is the shared-view registry (paper further work iv).
		Library *library.Library
		// Provenance records every view execution as queryable RDF.
		Provenance *provenance.Log
		// metadata accumulates RDF statements about deployed components,
		// e.g. QA → quality-dimension classifications (paper §3).
		metadata *rdf.Graph

		// resilience, when set via SetResilience, makes remote clients
		// fault-tolerant and compiled views degradable.
		resilience *Resilience
		// dataplane, when set via SetDataPlane, makes compiled views
		// shard service invocations; cache is the shared response cache
		// (nil unless DataPlane.Cache).
		dataplane *DataPlane
		cache     *qcache.Cache
		// cube aggregates every numeric annotation written to a local
		// repository into daQ-style quality rollups (see Cube).
		cube *qcube.Cube
		// clients caches one HTTP client (connection pool + breakers)
		// per scavenged host, guarded by mu.
		mu      sync.Mutex
		clients map[string]*services.Client
	}

	// Item identifies a data item (an LSID-wrapped URI).
	Item = evidence.Item
	// Map is an annotation map — the value quality operators exchange.
	Map = evidence.Map
	// Value is a typed evidence value.
	Value = evidence.Value
	// QualityAssertion is the QA operator interface.
	QualityAssertion = ops.QualityAssertion
	// Annotator is the annotation operator interface.
	Annotator = ops.Annotator
	// Compiled is an executable quality workflow compiled from a view.
	Compiled = compiler.Compiled
	// Store is the common annotation-repository API (local or remote).
	Store = annotstore.Store
	// Repository is the in-memory annotation store implementation.
	Repository = annotstore.Repository
	// Annotation is one quality-evidence statement.
	Annotation = annotstore.Annotation
)

// New returns a framework with the IQ model loaded, the standard "cache"
// and "default" repositories, and empty service/binding registries.
func New() *Framework {
	model := ontology.NewIQModel()
	f := &Framework{
		Model:        model,
		Repositories: annotstore.NewRegistry(),
		Services:     services.NewRegistry(),
		Bindings:     binding.NewRegistry(model),
		Library:      library.New(model),
		Provenance:   provenance.NewLog(),
		metadata:     rdf.NewGraph(),
		cube:         qcube.New(0),
	}
	// Every local repository feeds the quality cube.
	for _, name := range f.Repositories.Names() {
		if repo, ok := f.Repositories.Get(name); ok {
			if local, ok := repo.(*annotstore.Repository); ok {
				f.observeRepository(local)
			}
		}
	}
	return f
}

// NewItem wraps an IRI string as a data item.
func NewItem(uri string) Item { return rdf.IRI(uri) }

// NewMap builds an annotation map over items.
func NewMap(items ...Item) *Map { return evidence.NewMap(items...) }

// Q expands a local name against the Qurator IQ namespace ("q:" prefix).
func Q(local string) rdf.Term { return ontology.Q(local) }

// DeployAssertion deploys a QA as a local service and binds its IQ class
// to it, making it resolvable from quality views.
func (f *Framework) DeployAssertion(name string, assertion QualityAssertion) error {
	if name == "" {
		return fmt.Errorf("qurator: empty service name")
	}
	f.Services.Add(&services.AssertionService{ServiceName: name, QA: assertion})
	return f.Bindings.Bind(binding.Binding{
		Concept: assertion.Class(),
		Kind:    binding.ServiceResource,
		Locator: "local:" + name,
	})
}

// DeployAnnotator deploys an annotation function as a local service bound
// to its IQ class. The annotator writes to whichever repository the
// invoking view's repositoryRef selects.
func (f *Framework) DeployAnnotator(name string, annotator Annotator) error {
	if name == "" {
		return fmt.Errorf("qurator: empty service name")
	}
	f.Services.Add(&services.AnnotatorService{
		ServiceName:  name,
		Annotator:    annotator,
		Repositories: f.Repositories,
	})
	return f.Bindings.Bind(binding.Binding{
		Concept: annotator.Class(),
		Kind:    binding.ServiceResource,
		Locator: "local:" + name,
	})
}

// DeployStandardLibrary deploys the paper's reusable QA library: the
// HR+MC score (q:UniversalPIScore2), the HR-only score
// (q:HRScoreAssertion), the three-way classifier (q:PIScoreClassifier)
// and the curation-credibility QA (q:CurationCredibility).
func (f *Framework) DeployStandardLibrary() error {
	deps := []struct {
		name      string
		assertion QualityAssertion
	}{
		{"HR_MC_score", qa.NewUniversalPIScore(qvlang.TagKeyFor("HR_MC"))},
		{"HR_score", qa.NewHRScore(qvlang.TagKeyFor("HR"))},
		{"PIScoreClassifier", qa.NewPIScoreClassifier()},
		{"CurationCredibility", qa.NewCredibilityQA(qvlang.TagKeyFor("Credibility"))},
	}
	for _, d := range deps {
		if err := f.DeployAssertion(d.name, d.assertion); err != nil {
			return err
		}
	}
	return nil
}

// AddRepository registers an annotation repository under its name.
func (f *Framework) AddRepository(name string, persistent bool) *Repository {
	r := annotstore.New(name, persistent).WithModel(f.Model)
	f.observeRepository(r)
	f.Repositories.Add(r)
	return r
}

// Repository returns a registered annotation store by name.
func (f *Framework) Repository(name string) (Store, bool) {
	return f.Repositories.Get(name)
}

// CompileView parses, validates and compiles a quality-view XML document
// into an executable quality workflow.
func (f *Framework) CompileView(viewXML []byte) (*Compiled, error) {
	view, err := qvlang.Parse(viewXML)
	if err != nil {
		return nil, err
	}
	resolved, err := qvlang.Resolve(view, f.Model)
	if err != nil {
		return nil, err
	}
	c := &compiler.Compiler{
		Bindings:     f.Bindings,
		Resolver:     &binding.Resolver{Local: f.Services},
		Repositories: f.Repositories,
	}
	if r := f.resilience; r != nil {
		c.RetryAttempts = r.RetryAttempts
		c.RetryBackoff = r.RetryBackoff
		c.ProcessorTimeout = r.ProcessorTimeout
		c.Degraded = r.Degraded
	}
	if d := f.dataplane; d != nil {
		c.ShardSize = d.ShardSize
		c.MaxInflight = d.MaxInflight
		c.Cache = f.cache
	}
	compiled, err := c.Compile(resolved)
	if err != nil {
		return nil, err
	}
	compiled.Provenance = f.Provenance
	return compiled, nil
}

// CompileViewForStream compiles a view for streaming enactment
// (internal/stream): annotator classes with no bound service are stubbed
// with no-op annotators before compilation, since streamed items
// typically carry their evidence inline or find it already stored in a
// repository. Annotators that ARE deployed keep their bindings — each
// window invokes them as in batch enactment.
func (f *Framework) CompileViewForStream(viewXML []byte) (*Compiled, error) {
	view, err := qvlang.Parse(viewXML)
	if err != nil {
		return nil, err
	}
	resolved, err := qvlang.Resolve(view, f.Model)
	if err != nil {
		return nil, err
	}
	for _, ann := range resolved.Annotators {
		if _, err := f.Bindings.ResolveService(ann.Type); err == nil {
			continue
		}
		if err := f.DeployAnnotator("stream-stub:"+ann.Decl.ServiceName,
			ops.AnnotatorFunc{ClassIRI: ann.Type}); err != nil {
			return nil, err
		}
	}
	return f.CompileView(viewXML)
}

// ExecuteView compiles and runs a view over a data set in one call,
// clearing per-run caches first. The result maps output names
// ("<action>:<port>") to the surviving annotation maps.
func (f *Framework) ExecuteView(ctx context.Context, viewXML []byte, items []Item) (map[string]*Map, error) {
	compiled, err := f.CompileView(viewXML)
	if err != nil {
		return nil, err
	}
	if err := f.Repositories.ClearCaches(); err != nil {
		// An uncleared cache may hold the previous run's annotations. A
		// degraded run survives that like a failed service: every item's
		// evidence is marked degraded and undecided items are routed per
		// the policy. Without a degraded mode the run does not start.
		if compiled.DegradedMode() == compiler.DegradeOff {
			return nil, err
		}
		log, ok := compiler.FailureLogFrom(ctx)
		if !ok {
			log = compiler.NewFailureLog()
			ctx = compiler.WithFailureLog(ctx, log)
		}
		log.Add(compiler.Failure{Processor: "clear-caches", Err: err, Items: items})
	}
	return compiled.Run(ctx, items)
}

// Handler exposes the framework over HTTP (the cmd/quratord surface):
// the service fabric under /services and the annotation repositories
// under /repositories — the full Figure 5 deployment on one host.
func (f *Framework) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/services", services.Handler(f.Services))
	mux.Handle("/services/", services.Handler(f.Services))
	mux.Handle("/repositories", services.RepositoryHandler(f.Repositories))
	mux.Handle("/repositories/", services.RepositoryHandler(f.Repositories))
	return mux
}

// Scavenge discovers the services deployed on a remote Qurator host, adds
// proxies for them to the local registry, and binds their operator
// classes — Taverna's scavenger step (paper §6.1).
func (f *Framework) Scavenge(ctx context.Context, baseURL string) (int, error) {
	client := f.client(baseURL)
	found, err := client.Scavenge(ctx)
	if err != nil {
		return 0, err
	}
	for _, svc := range found {
		f.Services.Add(svc)
		info := svc.Describe()
		if info.Type == "" {
			continue
		}
		if err := f.Bindings.Bind(binding.Binding{
			Concept: rdf.IRI(info.Type),
			Kind:    binding.ServiceResource,
			Locator: "local:" + info.Name,
		}); err != nil {
			return 0, err
		}
	}
	return len(found), nil
}

// ScavengeRepositories discovers the annotation repositories hosted on a
// remote Qurator node and registers proxies for them locally, replacing
// same-named local stores — after this, views whose repositoryRef names a
// remote store read and write it over HTTP.
func (f *Framework) ScavengeRepositories(ctx context.Context, baseURL string) (int, error) {
	client := f.client(baseURL)
	repos, err := client.ScavengeRepositories(ctx)
	if err != nil {
		return 0, err
	}
	for _, r := range repos {
		f.Repositories.Add(r)
	}
	return len(repos), nil
}

// ClassifyAssertion records that a QA class addresses an IQ quality
// dimension (q:Accuracy, q:Completeness, q:Currency, q:Credibility or a
// user-added one) — the §3 mechanism that classifies QAs "for the purpose
// of ... fostering their reuse".
func (f *Framework) ClassifyAssertion(qaClass, dimension rdf.Term) error {
	if !f.Model.IsSubClassOf(qaClass, ontology.QualityAssertion) {
		return fmt.Errorf("qurator: %v is not a QualityAssertion subclass", qaClass)
	}
	if !f.Model.IsInstanceOf(dimension, ontology.QualityProperty) {
		return fmt.Errorf("qurator: %v is not a quality dimension", dimension)
	}
	_, err := f.metadata.Add(rdf.T(qaClass, ontology.AddressesProperty, dimension))
	return err
}

// DimensionsOf returns the quality dimensions recorded for a QA class.
func (f *Framework) DimensionsOf(qaClass rdf.Term) []rdf.Term {
	return f.metadata.Objects(qaClass, ontology.AddressesProperty)
}

// AssertionsAddressing returns the QA classes recorded under a dimension.
func (f *Framework) AssertionsAddressing(dimension rdf.Term) []rdf.Term {
	return f.metadata.Subjects(ontology.AddressesProperty, dimension)
}

// PublishView validates and publishes a quality view to the framework's
// shared library.
func (f *Framework) PublishView(entry library.Entry) (*library.Entry, error) {
	return f.Library.Publish(entry)
}

// FindApplicableViews returns the published views runnable with the given
// available evidence types (the §5.1 applicability rule).
func (f *Framework) FindApplicableViews(available []rdf.Term) []*library.Entry {
	return f.Library.FindApplicable(available)
}

// ExecuteSharedView compiles and runs a published view by name.
func (f *Framework) ExecuteSharedView(ctx context.Context, name string, items []Item) (map[string]*Map, error) {
	entry, ok := f.Library.Get(name)
	if !ok {
		return nil, fmt.Errorf("qurator: no published view %q", name)
	}
	return f.ExecuteView(ctx, []byte(entry.ViewXML), items)
}

// PaperViewXML is the ready-to-compile §5.1 quality view.
const PaperViewXML = qvlang.PaperViewXML

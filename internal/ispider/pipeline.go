package ispider

import (
	"context"
	"fmt"
	"sync"

	"qurator/internal/annotstore"
	"qurator/internal/binding"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/imprint"
	"qurator/internal/ontology"
	"qurator/internal/proteomics"
	"qurator/internal/qa"
	"qurator/internal/qcache"
	"qurator/internal/qvlang"
	"qurator/internal/services"
	"qurator/internal/workflow"
)

// Processor names of the Figure 1 host workflow.
const (
	ProcPedro   = "PedroRetrieve"
	ProcImprint = "ProteinIdentification"
	ProcGOA     = "GOARetrieval"
	// AdapterHits converts Imprint results into a quality data set — the
	// adapter of the Figure 6 deployment descriptor.
	AdapterHits = "ImprintHitsAdapter"
)

// entriesHolder carries the current run's identification output from the
// host workflow into the quality view's annotator: the evidence "is
// produced as part of the same process that computes the data" (§4), so
// the annotator reads whatever the latest identification step emitted.
type entriesHolder struct {
	mu      sync.Mutex
	entries []HitEntry
}

func (h *entriesHolder) set(entries []HitEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = entries
}

func (h *entriesHolder) get() []HitEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.entries
}

// Pipeline is the fully wired running example: the host workflow with the
// compiled §5.1 quality view embedded (Figure 6), plus the framework
// plumbing (service registry, bindings, repositories) behind it.
type Pipeline struct {
	World    *World
	Repos    *annotstore.Registry
	Services *services.Registry
	Bindings *binding.Registry
	Compiled *compiler.Compiled
	Host     *workflow.Workflow

	holder *entriesHolder
}

// RunOutput is one enactment's results.
type RunOutput struct {
	// Entries are all identifications produced by Imprint (pre-filter).
	Entries []HitEntry
	// Accepted is the annotation map surviving the quality view.
	Accepted *evidence.Map
	// TermCounts are the GO-term occurrence counts computed from the
	// accepted identifications.
	TermCounts map[string]int
}

// PipelineOptions parameterises BuildPipelineWith beyond the view source.
type PipelineOptions struct {
	// ViewXML is the quality view (default: the paper's §5.1 view).
	ViewXML string
	// ShardSize/MaxInflight/Cache configure the enactment data plane —
	// see compiler.Compiler. Zero values keep serial, uncached enactment.
	ShardSize   int
	MaxInflight int
	Cache       *qcache.Cache
}

// BuildPipeline compiles the quality view and embeds it into the Figure 1
// host workflow. viewXML defaults to the paper's §5.1 view.
func BuildPipeline(world *World, viewXML string) (*Pipeline, error) {
	return BuildPipelineWith(world, PipelineOptions{ViewXML: viewXML})
}

// BuildPipelineWith is BuildPipeline with data-plane options — the hook
// the Figure-7 data-plane benchmarks use to compare serial, sharded and
// cached enactment over one identical world.
func BuildPipelineWith(world *World, opts PipelineOptions) (*Pipeline, error) {
	viewXML := opts.ViewXML
	if viewXML == "" {
		viewXML = qvlang.PaperViewXML
	}
	model := ontology.NewIQModel()
	p := &Pipeline{
		World:  world,
		Repos:  annotstore.NewRegistry(),
		holder: &entriesHolder{},
	}

	// Deploy the services the view's operator classes bind to.
	p.Services = services.NewRegistry()
	p.Services.Add(&services.AnnotatorService{
		ServiceName:  "ImprintOutputAnnotator",
		Repositories: p.Repos,
		Annotator:    newHolderAnnotator(p.holder),
	})
	p.Services.Add(&services.AssertionService{
		ServiceName: "HR_MC_score",
		QA:          qa.NewUniversalPIScore(qvlang.TagKeyFor("HR_MC")),
	})
	p.Services.Add(&services.AssertionService{
		ServiceName: "HR_score",
		QA:          qa.NewHRScore(qvlang.TagKeyFor("HR")),
	})
	p.Services.Add(&services.AssertionService{
		ServiceName: "PIScoreClassifier",
		QA:          qa.NewPIScoreClassifier(),
	})

	p.Bindings = binding.NewRegistry(model)
	for concept, svc := range map[string]string{
		"ImprintOutputAnnotation": "ImprintOutputAnnotator",
		"UniversalPIScore2":       "HR_MC_score",
		"HRScoreAssertion":        "HR_score",
		"PIScoreClassifier":       "PIScoreClassifier",
	} {
		p.Bindings.MustBind(binding.Binding{
			Concept: ontology.Q(concept),
			Kind:    binding.ServiceResource,
			Locator: "local:" + svc,
		})
	}

	view, err := qvlang.Parse([]byte(viewXML))
	if err != nil {
		return nil, err
	}
	resolved, err := qvlang.Resolve(view, model)
	if err != nil {
		return nil, err
	}
	comp := &compiler.Compiler{
		Bindings:     p.Bindings,
		Resolver:     &binding.Resolver{Local: p.Services},
		Repositories: p.Repos,
		ShardSize:    opts.ShardSize,
		MaxInflight:  opts.MaxInflight,
		Cache:        opts.Cache,
	}
	p.Compiled, err = comp.Compile(resolved)
	if err != nil {
		return nil, err
	}

	host, err := buildHost(world)
	if err != nil {
		return nil, err
	}
	// Figure 6 embedding: producer → adapter → quality view → consumer.
	filterOut := p.Compiled.Outputs[0]
	desc := &compiler.DeploymentDescriptor{
		Target:   p.Compiled.Workflow.Name(),
		Adapters: []compiler.AdapterDecl{{Name: AdapterHits}},
		Connectors: []compiler.ConnectorDecl{
			{From: ProcImprint, FromPort: "results", To: p.Compiled.Workflow.Name(),
				ToPort: compiler.PortDataSet, Via: AdapterHits},
			{From: p.Compiled.Workflow.Name(), FromPort: filterOut, To: ProcGOA, ToPort: "proteins"},
		},
	}
	adapters := map[string]workflow.Processor{AdapterHits: newHitsAdapter(p.holder)}
	if err := compiler.Embed(host, p.Compiled, desc, adapters); err != nil {
		return nil, err
	}
	if err := host.BindOutput("accepted", p.Compiled.Workflow.Name(), filterOut); err != nil {
		return nil, err
	}
	p.Host = host
	return p, nil
}

// newHolderAnnotator wraps NewImprintAnnotator around the holder so that
// each run annotates against that run's identification output.
func newHolderAnnotator(holder *entriesHolder) annotatorFromHolder {
	return annotatorFromHolder{holder: holder}
}

type annotatorFromHolder struct {
	holder *entriesHolder
}

func (a annotatorFromHolder) Class() evidence.Key { return ontology.ImprintOutputAnnotation }

func (a annotatorFromHolder) Provides() []evidence.Key {
	return []evidence.Key{ontology.HitRatio, ontology.Coverage, ontology.Masses, ontology.PeptidesCount}
}

func (a annotatorFromHolder) Annotate(items []evidence.Item, repo annotstore.Store) error {
	return NewImprintAnnotator(a.holder.get()).Annotate(items, repo)
}

// buildHost constructs the Figure 1 workflow (without the quality view).
func buildHost(world *World) (*workflow.Workflow, error) {
	host := workflow.New("ispider-analysis")

	host.MustAddProcessor(&workflow.Func{
		PName:   ProcPedro,
		Outputs: []string{"peaklists"},
		Fn: func(context.Context, workflow.Ports) (workflow.Ports, error) {
			pls, err := world.Pedro.PeakLists(world.ExperimentID)
			if err != nil {
				return nil, err
			}
			return workflow.Ports{"peaklists": pls}, nil
		},
	})

	host.MustAddProcessor(&workflow.Func{
		PName:   ProcImprint,
		Inputs:  []string{"peaklists"},
		Outputs: []string{"results"},
		Fn: func(_ context.Context, in workflow.Ports) (workflow.Ports, error) {
			pls, ok := in["peaklists"].([]proteomics.PeakList)
			if !ok {
				return nil, fmt.Errorf("ispider: ProteinIdentification expects []proteomics.PeakList, got %T", in["peaklists"])
			}
			results := make([]imprint.Result, len(pls))
			for i, pl := range pls {
				results[i] = world.Engine.Search(pl)
			}
			return workflow.Ports{"results": results}, nil
		},
	})
	host.MustAddLink(workflow.Link{From: ProcPedro, FromPort: "peaklists", To: ProcImprint, ToPort: "peaklists"})

	host.MustAddProcessor(&workflow.Func{
		PName:   ProcGOA,
		Inputs:  []string{"proteins"},
		Outputs: []string{"terms"},
		Fn: func(_ context.Context, in workflow.Ports) (workflow.Ports, error) {
			m, ok := in["proteins"].(*evidence.Map)
			if !ok {
				return nil, fmt.Errorf("ispider: GOARetrieval expects *evidence.Map, got %T", in["proteins"])
			}
			counts, err := termCountsForItems(world, m.Items())
			if err != nil {
				return nil, err
			}
			return workflow.Ports{"terms": counts}, nil
		},
	})
	// GOARetrieval's "proteins" input is wired by the Figure 6 embedding
	// (the quality view's filter output feeds it).
	if err := host.BindOutput("terms", ProcGOA, "terms"); err != nil {
		return nil, err
	}
	return host, nil
}

// newHitsAdapter converts the Imprint results flowing on the host's data
// link into a quality data set, stashing the entries for the annotator.
func newHitsAdapter(holder *entriesHolder) workflow.Processor {
	return &workflow.Func{
		PName:   AdapterHits,
		Inputs:  []string{compiler.AdapterIn},
		Outputs: []string{compiler.AdapterOut},
		Fn: func(_ context.Context, in workflow.Ports) (workflow.Ports, error) {
			results, ok := in[compiler.AdapterIn].([]imprint.Result)
			if !ok {
				return nil, fmt.Errorf("ispider: adapter expects []imprint.Result, got %T", in[compiler.AdapterIn])
			}
			entries, items := Identifications(results)
			holder.set(entries)
			return workflow.Ports{compiler.AdapterOut: evidence.NewMap(items...)}, nil
		},
	}
}

// termCountsForItems accumulates GO-term occurrences over hit items: each
// identification contributes its protein's GO terms once, so a term's
// count is the number of identifications carrying it (accumulated "over
// the entire experimental sample", §6.3).
func termCountsForItems(world *World, items []evidence.Item) (map[string]int, error) {
	counts := map[string]int{}
	for _, item := range items {
		_, acc, _, err := ParseHitItem(item)
		if err != nil {
			return nil, err
		}
		for _, term := range world.GOA.TermsFor(acc) {
			counts[term]++
		}
	}
	return counts, nil
}

// Run enacts the embedded pipeline once: caches are cleared (cache
// annotations are valid for a single execution), the host workflow runs,
// and the accepted identifications plus the filtered GO-term counts are
// returned.
func (p *Pipeline) Run(ctx context.Context) (*RunOutput, error) {
	if err := p.Repos.ClearCaches(); err != nil {
		return nil, err
	}
	out, err := p.Host.Run(ctx, nil)
	if err != nil {
		return nil, err
	}
	accepted, ok := out["accepted"].(*evidence.Map)
	if !ok {
		return nil, fmt.Errorf("ispider: host output 'accepted' is %T", out["accepted"])
	}
	counts, ok := out["terms"].(map[string]int)
	if !ok {
		return nil, fmt.Errorf("ispider: host output 'terms' is %T", out["terms"])
	}
	return &RunOutput{
		Entries:    p.holder.get(),
		Accepted:   accepted,
		TermCounts: counts,
	}, nil
}

// RunBaseline executes the original Figure 1 analysis without any quality
// processing: every ranked identification feeds the GOA lookup.
func RunBaseline(world *World) (*RunOutput, error) {
	pls, err := world.Pedro.PeakLists(world.ExperimentID)
	if err != nil {
		return nil, err
	}
	results := make([]imprint.Result, len(pls))
	for i, pl := range pls {
		results[i] = world.Engine.Search(pl)
	}
	entries, items := Identifications(results)
	counts, err := termCountsForItems(world, items)
	if err != nil {
		return nil, err
	}
	return &RunOutput{
		Entries:    entries,
		Accepted:   evidence.NewMap(items...),
		TermCounts: counts,
	}, nil
}

// Package compiler turns abstract quality views into executable quality
// workflows (paper §6): it binds each declared operator class to a
// service through the semantic binding registry, emits a workflow
// following the §6.1 compilation rules, and embeds the result into a host
// workflow using a deployment descriptor (§6.2).
package compiler

import (
	"context"
	"fmt"
	"sync"

	"qurator/internal/evidence"
	"qurator/internal/qcache"
	"qurator/internal/services"
	"qurator/internal/workflow"
)

// Standard port names used by compiled quality workflows.
const (
	// PortDataSet is the input port carrying the data set (an
	// *evidence.Map whose items are the data set; evidence may be empty).
	PortDataSet = "dataset"
	// PortAnnotations carries an enriched/asserted annotation map.
	PortAnnotations = "annotations"
	// PortAccepted is a filter action's surviving data.
	PortAccepted = "accepted"
	// PortDefault is a splitter's k+1-th group.
	PortDefault = "default"
	// OutputAnnotations is the workflow output carrying the consolidated
	// annotation map (every item with its full assertion state, before
	// actions apply). It appears in Run results alongside the
	// "<action>:<port>" outputs.
	OutputAnnotations = PortAnnotations
)

// mode selects how a serviceProcessor translates ports to envelopes.
type mode int

const (
	modeAnnotator mode = iota + 1
	modeEnrichment
	modeAssertion
	modeFilter
	modeSplit
)

// serviceProcessor adapts a services.QualityService to a workflow
// Processor. Its configuration is mutable under a lock so that action
// conditions can be edited between runs without recompiling (paper §4).
type serviceProcessor struct {
	name   string
	svc    services.QualityService
	mode   mode
	inPort string
	outs   []string
	mu     sync.RWMutex
	config services.Config
	op     string

	// Data plane (see dataplane.go). shardSize > 0 splits item-scoped
	// inputs into shards of at most that many items, fanned out over at
	// most maxInflight workers (GOMAXPROCS when 0). cache, when non-nil,
	// memoises pure-response invocations content-addressed.
	shardSize   int
	maxInflight int
	cache       *qcache.Cache
}

func (p *serviceProcessor) Name() string         { return p.name }
func (p *serviceProcessor) InputPorts() []string { return []string{p.inPort} }
func (p *serviceProcessor) OutputPorts() []string {
	return append([]string(nil), p.outs...)
}

// setParam updates one configuration parameter.
func (p *serviceProcessor) setParam(name, value string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.config.Set(name, value)
}

func (p *serviceProcessor) snapshotConfig() services.Config {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cfg := services.Config{Params: append([]services.Param(nil), p.config.Params...)}
	return cfg
}

func (p *serviceProcessor) Execute(ctx context.Context, in workflow.Ports) (workflow.Ports, error) {
	m, ok := in[p.inPort].(*evidence.Map)
	if !ok {
		return nil, fmt.Errorf("compiler: processor %q expects *evidence.Map on %q, got %T",
			p.name, p.inPort, in[p.inPort])
	}
	resps, err := p.invokeShards(ctx, p.shardInput(m), p.snapshotConfig())
	if err != nil {
		return nil, err
	}
	switch p.mode {
	case modeAnnotator:
		// Annotators only write to a repository; no data output.
		return workflow.Ports{}, nil
	case modeEnrichment, modeAssertion, modeFilter:
		out, err := p.mergeMapResponses(resps)
		if err != nil {
			return nil, err
		}
		return workflow.Ports{p.outs[0]: out}, nil
	case modeSplit:
		return p.mergeSplitResponses(resps)
	default:
		return nil, fmt.Errorf("compiler: processor %q has unknown mode", p.name)
	}
}

// consolidateProcessor merges the annotation maps produced by the QA
// fan-out into one consistent view — the ConsolidateAssertions task added
// by the compiler (paper §6.1).
type consolidateProcessor struct {
	name   string
	inputs []string
}

func (p *consolidateProcessor) Name() string          { return p.name }
func (p *consolidateProcessor) InputPorts() []string  { return append([]string(nil), p.inputs...) }
func (p *consolidateProcessor) OutputPorts() []string { return []string{PortAnnotations} }

func (p *consolidateProcessor) Execute(_ context.Context, in workflow.Ports) (workflow.Ports, error) {
	var merged *evidence.Map
	for _, port := range p.inputs {
		m, ok := in[port].(*evidence.Map)
		if !ok {
			return nil, fmt.Errorf("compiler: consolidate expects *evidence.Map on %q, got %T", port, in[port])
		}
		// Starting from a clone of the first input, the merged map copies
		// its storage once, at the first cell another QA adds.
		if merged == nil {
			merged = m.Clone()
		} else {
			merged.Merge(m)
		}
	}
	if merged == nil {
		merged = evidence.NewMap()
	}
	return workflow.Ports{PortAnnotations: merged}, nil
}

package compiler

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"qurator/internal/annotstore"
	"qurator/internal/binding"
	"qurator/internal/condition"
	"qurator/internal/evidence"
	"qurator/internal/provenance"
	"qurator/internal/qcache"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/services"
	"qurator/internal/workflow"
)

// Compiler compiles resolved quality views into quality workflows.
type Compiler struct {
	// Bindings maps operator classes to service locators (§6: "a set of
	// bindings of abstract operator types to implemented services").
	Bindings *binding.Registry
	// Resolver materialises services behind bindings.
	Resolver *binding.Resolver
	// Repositories backs the core Data Enrichment service.
	Repositories *annotstore.Registry

	// RetryAttempts, when > 1, wraps every quality-service processor
	// (annotators, enrichment, QAs — not the local actions) in
	// workflow.Retry: application-level re-invocation on top of the
	// transport's own retries. Annotation writes are safe to re-invoke
	// here because repository puts are set-semantic.
	RetryAttempts int
	// RetryBackoff is the initial sleep between retry attempts.
	RetryBackoff time.Duration
	// ProcessorTimeout, when > 0, bounds each quality-service invocation
	// via workflow.Timeout.
	ProcessorTimeout time.Duration
	// Degraded selects what happens when a quality service fails for
	// good (see DegradedMode); DegradeOff fails the run.
	Degraded DegradedMode

	// ShardSize, when > 0, splits every item-scoped service invocation
	// into shards of at most this many items, invoked concurrently and
	// merged in order (see dataplane.go). 0 keeps the serial whole-map
	// invocation.
	ShardSize int
	// MaxInflight bounds concurrent shard invocations per processor
	// (GOMAXPROCS when 0).
	MaxInflight int
	// Cache, when non-nil, memoises pure-response service invocations
	// (QA assertions, filter/split actions) content-addressed by
	// (service, operation, config, shard payload).
	Cache *qcache.Cache
}

// dataplane copies the Compiler's data-plane settings onto a processor.
func (c *Compiler) dataplane(p *serviceProcessor) *serviceProcessor {
	p.shardSize = c.ShardSize
	p.maxInflight = c.MaxInflight
	p.cache = c.Cache
	return p
}

// Compiled is a quality workflow produced from a view, with handles for
// run-time condition editing (the paper's explore loop: "action
// conditions can be modified on-the-fly, from one process execution to
// the next").
type Compiled struct {
	// Workflow is the executable quality workflow — the workflow of the
	// view's plan of one; its single input is PortDataSet and its outputs
	// are one per action port.
	Workflow *workflow.Workflow
	// Resolved is the view the workflow was compiled from.
	Resolved *qvlang.Resolved
	// Outputs lists the workflow output names in declaration order.
	Outputs []string
	// Provenance, when set, records every Run (view name, conditions in
	// force, input/output sizes, timing) as queryable RDF.
	Provenance *provenance.Log

	name    string
	actions map[string]*serviceProcessor
	// Quality-service processor handles in declaration order — the
	// fingerprinting substrate for MergeViews (mqo.go) — and, by name,
	// the guarded processors MergeViews lays out.
	annotators []*serviceProcessor
	enrichment *serviceProcessor
	qas        []*serviceProcessor
	guarded    map[string]workflow.Processor
	// one is the view's plan of one: the layout of Workflow and the path
	// every Run and Execute takes.
	one      *MultiView
	degraded atomic.Int32 // holds a DegradedMode
}

// DegradedMode returns the degraded-enactment policy in force.
func (c *Compiled) DegradedMode() DegradedMode { return DegradedMode(c.degraded.Load()) }

// SetDegradedMode changes the degraded-enactment policy for subsequent
// runs (every run survives service failures; the mode decides how its
// undecided items are routed, or, when off, that it fails). Safe to call
// while enactments are in flight: each run reads the mode once on entry
// and applies it consistently throughout.
func (c *Compiled) SetDegradedMode(m DegradedMode) { c.degraded.Store(int32(m)) }

// Conditions returns the condition text currently in force per action —
// filter conditions under the action name, splitter branches under
// "action/branch".
func (c *Compiled) Conditions() map[string]string {
	out := map[string]string{}
	for name, p := range c.actions {
		cfg := p.snapshotConfig()
		if cond, ok := cfg.Get("condition"); ok {
			out[name] = cond
		}
		for _, param := range cfg.Params {
			if branch, ok := strings.CutPrefix(param.Name, "group:"); ok {
				out[name+"/"+branch] = param.Value
			}
		}
	}
	return out
}

// ProcessorNames used by the §6.1 compilation.
const (
	ProcEnrichment  = "DataEnrichment"
	ProcConsolidate = "ConsolidateAssertions"
)

// Compile applies the §6.1 rules. It builds the processors the rules
// name and lays them out with MergeViews, as the view's plan of one:
//
//  1. annotators are added first; their input ports are bound to the
//     workflow's data set input, their outputs are empty;
//  2. a single Data Enrichment processor is added, configured with the
//     evidence-type → repository association derived from the annotator
//     and QA declarations, with a control link from each annotator;
//  3. the enrichment output feeds every QA processor (the common service
//     interface makes the fan-out uniform);
//  4. a ConsolidateAssertions task merges the QA outputs;
//  5. action processors are added last, each fed by the consolidation,
//     and their output ports become the workflow outputs.
func (c *Compiler) Compile(r *qvlang.Resolved) (*Compiled, error) {
	if c.Repositories == nil {
		return nil, fmt.Errorf("compiler: no repositories configured")
	}
	if err := checkNameCollisions(r); err != nil {
		return nil, err
	}
	compiled := &Compiled{
		name: r.View.Name, Resolved: r,
		actions: map[string]*serviceProcessor{},
		guarded: map[string]workflow.Processor{},
	}
	compiled.degraded.Store(int32(c.Degraded))
	withGuard := func(p *serviceProcessor) *serviceProcessor {
		compiled.guarded[p.name] = c.guard(c.dataplane(p))
		return p
	}

	// Rule 1: annotators.
	for _, ann := range r.Annotators {
		svc, err := c.serviceFor(ann.Type)
		if err != nil {
			return nil, fmt.Errorf("compiler: annotator %q: %w", ann.Decl.ServiceName, err)
		}
		p := &serviceProcessor{
			name:   procName("Annotator", ann.Decl.ServiceName),
			svc:    svc,
			mode:   modeAnnotator,
			inPort: PortDataSet,
		}
		p.config.Set("repositoryRef", ann.Provides[0].Repository)
		compiled.annotators = append(compiled.annotators, withGuard(p))
	}

	// Rule 2: one Data Enrichment operator configured from the derived
	// evidence → repository association.
	de := &serviceProcessor{
		name:   ProcEnrichment,
		svc:    &services.EnrichmentService{ServiceName: ProcEnrichment, Repositories: c.Repositories},
		mode:   modeEnrichment,
		inPort: PortDataSet,
		outs:   []string{PortAnnotations},
	}
	for _, ev := range sortedEvidence(r.EvidenceRepo) {
		de.config.Set(services.SourceParam(ev), r.EvidenceRepo[ev])
	}
	compiled.enrichment = withGuard(de)

	// Rule 3: the QAs the enrichment output feeds.
	for _, as := range r.Assertions {
		svc, err := c.serviceFor(as.Type)
		if err != nil {
			return nil, fmt.Errorf("compiler: assertion %q: %w", as.Decl.ServiceName, err)
		}
		compiled.qas = append(compiled.qas, withGuard(&serviceProcessor{
			name:   procName("QA", as.Decl.ServiceName),
			svc:    svc,
			mode:   modeAssertion,
			inPort: PortAnnotations,
			outs:   []string{PortAnnotations},
		}))
	}

	// Rule 5: actions. Each output port is a workflow output; rule 4's
	// consolidation is MergeViews' own.
	for _, act := range r.Actions {
		name := procName("Action", act.Name)
		p := &serviceProcessor{
			name:   name,
			svc:    &services.ActionService{ServiceName: name},
			mode:   modeFilter,
			inPort: PortAnnotations,
		}
		for ident, key := range r.Vars {
			p.config.Set(services.VarParam(ident), key.Value())
		}
		switch {
		case act.Filter != nil:
			p.op = "filter"
			p.outs = []string{PortAccepted}
			p.config.Set("condition", act.Filter.String())
		default:
			p.op = "split"
			p.mode = modeSplit
			for _, b := range act.Branches {
				p.outs = append(p.outs, b.Name)
				p.config.Set("group:"+b.Name, b.Cond.String())
			}
			p.outs = append(p.outs, PortDefault)
		}
		for _, port := range p.outs {
			compiled.Outputs = append(compiled.Outputs, outputName(act.Name, port))
		}
		compiled.actions[act.Name] = c.dataplane(p)
	}

	one, err := MergeViews(compiled)
	if err != nil {
		return nil, err
	}
	compiled.one, compiled.Workflow = one, one.Workflow()
	return compiled, nil
}

// guard stacks the fault-tolerance decorators around a quality-service
// processor: degrade(Retry(Timeout(p))). Timeout bounds one invocation,
// Retry re-invokes through transient failures, and the degrade wrapper —
// outermost, so it only sees terminal failures — turns what is left into
// unknown evidence when the run carries a FailureLog. Actions and
// consolidation stay bare: they are local, pure computations whose
// failure is a programming error, not a fabric fault.
func (c *Compiler) guard(p *serviceProcessor) workflow.Processor {
	var w workflow.Processor = p
	if c.ProcessorTimeout > 0 {
		w = workflow.WithTimeout(w, c.ProcessorTimeout)
	}
	if c.RetryAttempts > 1 {
		w = workflow.WithRetry(w, c.RetryAttempts, c.RetryBackoff)
	}
	return &degradeProcessor{inner: w, pmode: p.mode, inPort: p.inPort}
}

// serviceFor resolves an operator class to a deployed service through the
// binding registry.
func (c *Compiler) serviceFor(class rdf.Term) (services.QualityService, error) {
	if c.Bindings == nil || c.Resolver == nil {
		return nil, fmt.Errorf("compiler: no binding registry/resolver configured")
	}
	b, err := c.Bindings.ResolveService(class)
	if err != nil {
		return nil, err
	}
	return c.Resolver.Service(b)
}

// checkNameCollisions rejects declarations whose names normalise to the
// same processor/output name via condition.NormaliseName — left unchecked
// the collision surfaces later as a confusing duplicate-processor /
// duplicate-output error, or worse, as a silent overwrite in the actions
// map. Categories never collide with each other (processor names carry
// an "Annotator:"/"QA:"/"Action:" prefix), so each is checked on its own.
func checkNameCollisions(r *qvlang.Resolved) error {
	check := func(kind string, names []string) error {
		seen := map[string]string{}
		for _, name := range names {
			norm := condition.NormaliseName(name)
			if prev, ok := seen[norm]; ok {
				return fmt.Errorf("compiler: %s declarations %q and %q collide: both normalise to %q",
					kind, prev, name, norm)
			}
			seen[norm] = name
		}
		return nil
	}
	var anns, qas, acts []string
	for _, a := range r.Annotators {
		anns = append(anns, a.Decl.ServiceName)
	}
	for _, a := range r.Assertions {
		qas = append(qas, a.Decl.ServiceName)
	}
	for _, a := range r.Actions {
		acts = append(acts, a.Name)
	}
	if err := check("annotator", anns); err != nil {
		return err
	}
	if err := check("assertion", qas); err != nil {
		return err
	}
	return check("action", acts)
}

// outputName builds a workflow output name from an action and port.
func outputName(action, port string) string {
	return condition.NormaliseName(action) + ":" + port
}

func procName(prefix, name string) string {
	return prefix + ":" + condition.NormaliseName(name)
}

func sortedEvidence(m map[rdf.Term]string) []rdf.Term {
	out := make([]rdf.Term, 0, len(m))
	for ev := range m {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return rdf.CompareTerms(out[i], out[j]) < 0 })
	return out
}

// SetFilterCondition replaces a filter action's condition for subsequent
// runs — the paper's rapid-exploration loop. The condition is validated
// against the view's declared variables.
func (c *Compiled) SetFilterCondition(action, cond string) error {
	p, ok := c.actions[action]
	if !ok {
		return fmt.Errorf("compiler: unknown action %q", action)
	}
	if p.op != "filter" {
		return fmt.Errorf("compiler: action %q is not a filter", action)
	}
	expr, err := condition.Parse(cond)
	if err != nil {
		return err
	}
	p.setParam("condition", expr.String())
	return nil
}

// SetBranchCondition replaces one splitter branch's condition.
func (c *Compiled) SetBranchCondition(action, branch, cond string) error {
	p, ok := c.actions[action]
	if !ok {
		return fmt.Errorf("compiler: unknown action %q", action)
	}
	if p.op != "split" {
		return fmt.Errorf("compiler: action %q is not a splitter", action)
	}
	found := false
	for _, out := range p.outs {
		if out == branch {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("compiler: action %q has no branch %q", action, branch)
	}
	expr, err := condition.Parse(cond)
	if err != nil {
		return err
	}
	p.setParam("group:"+branch, expr.String())
	return nil
}

// Run executes the quality workflow over a data set and returns the
// output maps keyed by workflow output name ("<action>:<port>"). When a
// provenance log is attached, the run is recorded.
func (c *Compiled) Run(ctx context.Context, items []evidence.Item) (map[string]*evidence.Map, error) {
	return c.enact(ctx, evidence.NewMap(items...))
}

// enact runs the view's plan of one (MultiView.EnactMap) and returns the
// view's outputs, or the error that failed its run.
func (c *Compiled) enact(ctx context.Context, in *evidence.Map) (map[string]*evidence.Map, error) {
	res, err := c.one.EnactMap(ctx, in)
	if err != nil {
		return nil, err
	}
	return res[c.name].Outputs, res[c.name].Err
}

// Compiled implements workflow.Processor by enacting its plan of one, so
// the quality view embeds into a host as a single node while keeping
// provenance recording: every enactment — direct or embedded — is logged.
var _ workflow.Processor = (*Compiled)(nil)

// Name implements workflow.Processor.
func (c *Compiled) Name() string { return c.name }

// InputPorts implements workflow.Processor.
func (c *Compiled) InputPorts() []string { return c.Workflow.InputPorts() }

// OutputPorts implements workflow.Processor.
func (c *Compiled) OutputPorts() []string { return c.Workflow.OutputPorts() }

// Execute implements workflow.Processor: Run over the evidence map on
// PortDataSet.
func (c *Compiled) Execute(ctx context.Context, in workflow.Ports) (workflow.Ports, error) {
	m, ok := in[PortDataSet].(*evidence.Map)
	if !ok {
		return nil, fmt.Errorf("compiler: view %q: input %q is %T, not *evidence.Map", c.name, PortDataSet, in[PortDataSet])
	}
	outs, err := c.enact(ctx, m)
	if err != nil {
		return nil, err
	}
	out := make(workflow.Ports, len(outs))
	for name, m := range outs {
		out[name] = m
	}
	return out, nil
}

// finish is the per-view epilogue of every enactment of c, as a member
// of a plan (MultiView.EnactMap): it routes undecided items per the
// degraded mode, then records the run in the provenance log when one is
// attached, returning the log's store write failure.
func (c *Compiled) finish(out workflow.Ports, failures []Failure, mode DegradedMode, inputSize int, started time.Time, traceID string) error {
	if mode != DegradeOff {
		c.applyDegradedRouting(out, failures, mode)
	}
	if c.Provenance == nil {
		return nil
	}
	rec := provenance.Record{
		View:       c.name,
		Started:    started,
		Duration:   time.Since(started),
		InputSize:  inputSize,
		Outputs:    map[string]int{},
		Conditions: c.Conditions(),
		TraceID:    traceID,
	}
	for name, v := range out {
		if m, ok := v.(*evidence.Map); ok {
			rec.Outputs[name] = m.Len()
		}
	}
	if _, err := c.Provenance.Record(rec); err != nil {
		return fmt.Errorf("compiler: view %q: provenance: %w", c.name, err)
	}
	return nil
}

// Describe renders the compiled workflow structure (processors + links)
// for inspection — what cmd/qvc prints.
func (c *Compiled) Describe() string {
	var b strings.Builder
	wf := c.Workflow
	fmt.Fprintf(&b, "workflow %s\n", wf.Name())
	fmt.Fprintf(&b, "  inputs:  %s\n", strings.Join(wf.InputPorts(), ", "))
	fmt.Fprintf(&b, "  outputs: %s\n", strings.Join(wf.OutputPorts(), ", "))
	b.WriteString("  processors:\n")
	for _, name := range wf.Processors() {
		p, _ := wf.Processor(name)
		fmt.Fprintf(&b, "    %-40s in=%v out=%v\n", name, p.InputPorts(), p.OutputPorts())
	}
	b.WriteString("  data links:\n")
	for _, l := range wf.DataLinks() {
		fmt.Fprintf(&b, "    %s\n", l)
	}
	if cls := wf.ControlLinks(); len(cls) > 0 {
		b.WriteString("  control links:\n")
		for _, cl := range cls {
			fmt.Fprintf(&b, "    %s ==> %s\n", cl.From, cl.To)
		}
	}
	return b.String()
}

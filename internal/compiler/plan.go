package compiler

import (
	"sort"

	"qurator/internal/rdf"
)

// Plan is the abstract, enactment-independent description of a compiled
// quality view — the structure the §6.1 compilation rules produced,
// projected for alternative enactors. The streaming enactor
// (internal/stream) reads it to route inline evidence to the right
// repositories, to know which annotation-map keys the QAs write (the
// score tags it tracks window statistics for), and to name the decision
// outputs, all without reaching into the workflow graph.
type Plan struct {
	// View is the quality view name.
	View string
	// Annotators are the annotator processor names, in declaration order.
	Annotators []string
	// QAs are the quality-assertion processor names, in declaration order.
	QAs []string
	// EvidenceRepo maps each evidence type to the repository holding it —
	// the association the compiler derived for the Data Enrichment
	// operator. A streaming ingester uses it to store inline evidence
	// where enrichment will find it.
	EvidenceRepo map[rdf.Term]string
	// Tags are the annotation-map keys the QAs write (score-tag IRIs and
	// classification-model IRIs), sorted.
	Tags []rdf.Term
	// Vars maps condition identifiers to annotation-map keys.
	Vars map[string]rdf.Term
	// Actions describe the view's condition/action pairs.
	Actions []ActionPlan
	// Outputs are the decision output names ("<action>:<port>"), in
	// declaration order — the same list as Compiled.Outputs.
	Outputs []string
}

// ActionPlan describes one action of the plan.
type ActionPlan struct {
	// Name is the action name as declared in the view.
	Name string
	// Op is "filter" or "split".
	Op string
	// Outputs are this action's output names ("<action>:<port>").
	Outputs []string
}

// Plan derives the abstract plan from the compiled view.
func (c *Compiled) Plan() Plan {
	r := c.Resolved
	p := Plan{
		View:         c.name,
		EvidenceRepo: make(map[rdf.Term]string, len(r.EvidenceRepo)),
		Vars:         make(map[string]rdf.Term, len(r.Vars)),
		Outputs:      append([]string(nil), c.Outputs...),
	}
	for ev, repo := range r.EvidenceRepo {
		p.EvidenceRepo[ev] = repo
	}
	for ident, key := range r.Vars {
		p.Vars[ident] = key
	}
	for _, ann := range r.Annotators {
		p.Annotators = append(p.Annotators, procName("Annotator", ann.Decl.ServiceName))
	}
	for _, as := range r.Assertions {
		p.QAs = append(p.QAs, procName("QA", as.Decl.ServiceName))
		if !as.TagKey.IsZero() {
			p.Tags = append(p.Tags, as.TagKey)
		}
	}
	sort.Slice(p.Tags, func(i, j int) bool { return rdf.CompareTerms(p.Tags[i], p.Tags[j]) < 0 })
	for _, act := range r.Actions {
		ap := ActionPlan{Name: act.Name, Op: "filter"}
		if act.Filter == nil {
			ap.Op = "split"
			for _, b := range act.Branches {
				ap.Outputs = append(ap.Outputs, outputName(act.Name, b.Name))
			}
			ap.Outputs = append(ap.Outputs, outputName(act.Name, PortDefault))
		} else {
			ap.Outputs = []string{outputName(act.Name, PortAccepted)}
		}
		p.Actions = append(p.Actions, ap)
	}
	return p
}

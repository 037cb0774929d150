package compiler

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"qurator/internal/annotstore"
	"qurator/internal/binding"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/provenance"
	"qurator/internal/qa"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/services"
	"qurator/internal/workflow"
)

func item(i int) evidence.Item {
	return rdf.IRI(fmt.Sprintf("urn:lsid:test.org:hit:%d", i))
}

// testAnnotator writes synthetic HR/Coverage/Masses/PeptidesCount
// evidence: items with even index get strong evidence, odd weak.
func testAnnotator() ops.Annotator {
	return ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Types: []rdf.Term{
			ontology.HitRatio, ontology.Coverage, ontology.Masses, ontology.PeptidesCount,
		},
		Fn: func(items []evidence.Item, repo annotstore.Store) error {
			for i, it := range items {
				hr, mc := 0.9, 0.8
				if i%2 == 1 {
					hr, mc = 0.15, 0.1
				}
				puts := []annotstore.Annotation{
					{Item: it, Type: ontology.HitRatio, Value: evidence.Float(hr)},
					{Item: it, Type: ontology.Coverage, Value: evidence.Float(mc)},
					{Item: it, Type: ontology.Masses, Value: evidence.Int(int64(10 + i))},
					{Item: it, Type: ontology.PeptidesCount, Value: evidence.Int(8)},
				}
				for _, a := range puts {
					if err := repo.Put(a); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}

// testCompiler assembles the full stack for the paper view: deployed
// services, bindings, repositories.
func testCompiler(t *testing.T) *Compiler {
	t.Helper()
	model := ontology.NewIQModel()
	repos := annotstore.NewRegistry()
	local := services.NewRegistry()
	local.Add(&services.AnnotatorService{
		ServiceName:  "ImprintOutputAnnotator",
		Annotator:    testAnnotator(),
		Repositories: repos,
	})
	local.Add(&services.AssertionService{
		ServiceName: "HR_MC_score",
		QA:          qa.NewUniversalPIScore(qvlang.TagKeyFor("HR_MC")),
	})
	local.Add(&services.AssertionService{
		ServiceName: "HR_score",
		QA:          qa.NewHRScore(qvlang.TagKeyFor("HR")),
	})
	local.Add(&services.AssertionService{
		ServiceName: "PIScoreClassifier",
		QA:          qa.NewPIScoreClassifier(),
	})
	bindings := binding.NewRegistry(model)
	bindings.MustBind(binding.Binding{Concept: ontology.ImprintOutputAnnotation, Kind: binding.ServiceResource, Locator: "local:ImprintOutputAnnotator"})
	bindings.MustBind(binding.Binding{Concept: ontology.UniversalPIScore2, Kind: binding.ServiceResource, Locator: "local:HR_MC_score"})
	bindings.MustBind(binding.Binding{Concept: ontology.HRScoreAssertion, Kind: binding.ServiceResource, Locator: "local:HR_score"})
	bindings.MustBind(binding.Binding{Concept: ontology.PIScoreClassifier, Kind: binding.ServiceResource, Locator: "local:PIScoreClassifier"})
	return &Compiler{
		Bindings:     bindings,
		Resolver:     &binding.Resolver{Local: local},
		Repositories: repos,
	}
}

func compilePaperView(t *testing.T) *Compiled {
	t.Helper()
	v, err := qvlang.Parse([]byte(qvlang.PaperViewXML))
	if err != nil {
		t.Fatal(err)
	}
	r, err := qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := testCompiler(t).Compile(r)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return compiled
}

func TestCompileStructureFollowsSection61Rules(t *testing.T) {
	c := compilePaperView(t)
	wf := c.Workflow

	procs := wf.Processors()
	// Annotators first, then DE, QAs, consolidation, actions.
	if procs[0] != "Annotator:ImprintOutputAnnotator" {
		t.Errorf("first processor = %q", procs[0])
	}
	if procs[1] != ProcEnrichment {
		t.Errorf("second processor = %q", procs[1])
	}
	deCount, consCount := 0, 0
	for _, p := range procs {
		if p == ProcEnrichment {
			deCount++
		}
		if p == ProcConsolidate {
			consCount++
		}
	}
	if deCount != 1 {
		t.Errorf("compiler must add exactly one Data Enrichment operator, got %d", deCount)
	}
	if consCount != 1 {
		t.Errorf("exactly one ConsolidateAssertions, got %d", consCount)
	}

	// Control link from each annotator to the DE.
	ctrl := wf.ControlLinks()
	if len(ctrl) != 1 || ctrl[0].From != "Annotator:ImprintOutputAnnotator" || ctrl[0].To != ProcEnrichment {
		t.Errorf("control links = %v", ctrl)
	}

	// DE output fans out to all three QAs; QAs feed consolidation;
	// consolidation feeds the action.
	fanOut := 0
	for _, l := range wf.DataLinks() {
		if l.From == ProcEnrichment && strings.HasPrefix(l.To, "QA:") {
			fanOut++
		}
	}
	if fanOut != 3 {
		t.Errorf("DE fans out to %d QAs, want 3", fanOut)
	}
	intoCons := 0
	for _, l := range wf.DataLinks() {
		if l.To == ProcConsolidate {
			intoCons++
		}
	}
	if intoCons != 3 {
		t.Errorf("%d links into consolidation, want 3", intoCons)
	}
	actionFed := false
	for _, l := range wf.DataLinks() {
		if l.From == ProcConsolidate && strings.HasPrefix(l.To, "Action:") {
			actionFed = true
		}
	}
	if !actionFed {
		t.Error("action not fed by consolidation")
	}
	if err := wf.Validate(); err != nil {
		t.Errorf("compiled workflow invalid: %v", err)
	}
	if len(c.Outputs) != 1 || c.Outputs[0] != outputName("filter top k score", PortAccepted) {
		t.Errorf("outputs = %v", c.Outputs)
	}
	// Describe renders something useful.
	if d := c.Describe(); !strings.Contains(d, ProcEnrichment) || !strings.Contains(d, "Annotator:") {
		t.Errorf("Describe output incomplete:\n%s", d)
	}
}

func TestCompiledRunEndToEnd(t *testing.T) {
	c := compilePaperView(t)
	items := make([]evidence.Item, 10)
	for i := range items {
		items[i] = item(i)
	}
	out, err := c.Run(context.Background(), items)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	accepted := out[outputName("filter top k score", PortAccepted)]
	if accepted == nil {
		t.Fatalf("no accepted output; outputs = %v", keysOf(out))
	}
	// Even-indexed items have strong evidence: HR=0.9, MC=0.8 →
	// score ≈ 61 > 20 and class high/mid; odd items are weak.
	if accepted.Len() != 5 {
		t.Errorf("accepted %d items, want 5: %v", accepted.Len(), accepted.Items())
	}
	for _, it := range accepted.Items() {
		cls := accepted.Class(it, ontology.PIScoreClassification)
		if cls != ontology.ClassHigh && cls != ontology.ClassMid {
			t.Errorf("surviving item %v has class %v", it, cls)
		}
		if !accepted.Has(it, qvlang.TagKeyFor("HR_MC")) {
			t.Errorf("surviving item %v lacks the HR_MC score", it)
		}
		if !accepted.Has(it, qvlang.TagKeyFor("HR")) {
			t.Errorf("surviving item %v lacks the HR score (consolidation)", it)
		}
	}
}

func TestConditionEditingBetweenRuns(t *testing.T) {
	c := compilePaperView(t)
	items := make([]evidence.Item, 10)
	for i := range items {
		items[i] = item(i)
	}
	first, err := c.Run(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	// Loosen the condition: keep everything with any class.
	if err := c.SetFilterCondition("filter top k score", "HR_MC > 0"); err != nil {
		t.Fatalf("SetFilterCondition: %v", err)
	}
	second, err := c.Run(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	a, b := first[outputName("filter top k score", PortAccepted)], second[outputName("filter top k score", PortAccepted)]
	if !(b.Len() > a.Len()) {
		t.Errorf("loosened condition kept %d ≤ %d", b.Len(), a.Len())
	}
	// Unknown action / non-filter errors.
	if err := c.SetFilterCondition("ghost", "x > 1"); err == nil {
		t.Error("unknown action should fail")
	}
	if err := c.SetFilterCondition("filter top k score", ">>>"); err == nil {
		t.Error("bad condition should fail")
	}
}

const splitterViewXML = `<QualityView name="route-by-class">
  <Annotator servicename="ImprintOutputAnnotator" servicetype="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
      <var evidence="q:Coverage"/>
    </variables>
  </Annotator>
  <QualityAssertion servicename="PIScoreClassifier" servicetype="q:PIScoreClassifier"
                    tagsemtype="q:PIScoreClassification" tagname="ScoreClass" tagsyntype="q:class">
    <variables repositoryRef="cache">
      <var variablename="hr" evidence="q:HitRatio"/>
      <var variablename="mc" evidence="q:Coverage"/>
    </variables>
  </QualityAssertion>
  <action name="route">
    <splitter>
      <branch name="keep"><condition>ScoreClass in q:high, q:mid</condition></branch>
      <branch name="review"><condition>hr &gt; 0.5</condition></branch>
    </splitter>
  </action>
</QualityView>`

func TestCompileSplitterView(t *testing.T) {
	v, err := qvlang.Parse([]byte(splitterViewXML))
	if err != nil {
		t.Fatal(err)
	}
	r, err := qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatal(err)
	}
	c, err := testCompiler(t).Compile(r)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	items := make([]evidence.Item, 8)
	for i := range items {
		items[i] = item(i)
	}
	out, err := c.Run(context.Background(), items)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	keep := out[outputName("route", "keep")]
	review := out[outputName("route", "review")]
	def := out[outputName("route", PortDefault)]
	if keep == nil || review == nil || def == nil {
		t.Fatalf("missing split outputs: %v", keysOf(out))
	}
	total := map[evidence.Item]bool{}
	for _, g := range []*evidence.Map{keep, review, def} {
		for _, it := range g.Items() {
			total[it] = true
		}
	}
	if len(total) != 8 {
		t.Errorf("split covers %d items, want 8", len(total))
	}
	// Branch conditions are editable too.
	if err := c.SetBranchCondition("route", "keep", "ScoreClass in q:high"); err != nil {
		t.Fatalf("SetBranchCondition: %v", err)
	}
	if err := c.SetBranchCondition("route", "ghost", "hr > 0"); err == nil {
		t.Error("unknown branch should fail")
	}
	if err := c.SetFilterCondition("route", "hr > 0"); err == nil {
		t.Error("SetFilterCondition on splitter should fail")
	}
}

func TestRunRecordsProvenance(t *testing.T) {
	c := compilePaperView(t)
	c.Provenance = provenance.NewLog()
	items := make([]evidence.Item, 6)
	for i := range items {
		items[i] = item(i)
	}
	if _, err := c.Run(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	if err := c.SetFilterCondition("filter top k score", "ScoreClass in q:high"); err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if c.Provenance.Len() != 2 {
		t.Fatalf("recorded %d runs, want 2", c.Provenance.Len())
	}
	last, ok := c.Provenance.LastRun()
	if !ok {
		t.Fatal("no last run")
	}
	if last.View != "protein-id-quality" || last.InputSize != 6 {
		t.Errorf("last run = %+v", last)
	}
	if got := last.Outputs[outputName("filter top k score", PortAccepted)]; got != out[outputName("filter top k score", PortAccepted)].Len() {
		t.Errorf("recorded output size %d != actual %d", got, out[outputName("filter top k score", PortAccepted)].Len())
	}
	// The edited condition is what the record carries.
	if cond := last.Conditions["filter top k score"]; !strings.Contains(cond, "q:high") ||
		strings.Contains(cond, "q:mid") {
		t.Errorf("recorded condition = %q", cond)
	}
	// Conditions() exposes the same snapshot directly.
	if cond := c.Conditions()["filter top k score"]; !strings.Contains(cond, "q:high") {
		t.Errorf("Conditions() = %v", c.Conditions())
	}
}

func TestCompileMissingBinding(t *testing.T) {
	v, _ := qvlang.Parse([]byte(qvlang.PaperViewXML))
	r, err := qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatal(err)
	}
	c := testCompiler(t)
	c.Bindings = binding.NewRegistry(nil) // empty
	if _, err := c.Compile(r); err == nil {
		t.Error("compilation without bindings should fail")
	}
	c2 := testCompiler(t)
	c2.Repositories = nil
	if _, err := c2.Compile(r); err == nil {
		t.Error("compilation without repositories should fail")
	}
}

func TestEmbedIntoHostWorkflow(t *testing.T) {
	// A miniature of Figure 6: host = producer → [quality view] → consumer,
	// with an adapter converting the producer's output format.
	qv := compilePaperView(t)

	host := workflow.New("host")
	host.MustAddProcessor(&workflow.Func{
		PName:   "ProteinIdentification",
		Outputs: []string{"hits"},
		Fn: func(context.Context, workflow.Ports) (workflow.Ports, error) {
			// The producer emits raw accession strings, not a map — the
			// adapter converts.
			return workflow.Ports{"hits": []string{"P0", "P1", "P2", "P3"}}, nil
		},
	})
	var consumed *evidence.Map
	host.MustAddProcessor(&workflow.Func{
		PName:  "GOARetrieval",
		Inputs: []string{"proteins"},
		Fn: func(_ context.Context, in workflow.Ports) (workflow.Ports, error) {
			consumed = in["proteins"].(*evidence.Map)
			return workflow.Ports{}, nil
		},
	})

	adapter := &workflow.Func{
		PName:   "AccessionListAdapter",
		Inputs:  []string{AdapterIn},
		Outputs: []string{AdapterOut},
		Fn: func(_ context.Context, in workflow.Ports) (workflow.Ports, error) {
			accs := in[AdapterIn].([]string)
			m := evidence.NewMap()
			for _, a := range accs {
				m.AddItem(rdf.IRI("urn:lsid:test.org:hit:" + a))
			}
			return workflow.Ports{AdapterOut: m}, nil
		},
	}

	desc := &DeploymentDescriptor{
		Target:   qv.Workflow.Name(),
		Adapters: []AdapterDecl{{Name: "AccessionListAdapter"}},
		Connectors: []ConnectorDecl{
			{From: "ProteinIdentification", FromPort: "hits", To: qv.Workflow.Name(), ToPort: PortDataSet, Via: "AccessionListAdapter"},
			{From: qv.Workflow.Name(), FromPort: outputName("filter top k score", PortAccepted), To: "GOARetrieval", ToPort: "proteins"},
		},
	}
	err := Embed(host, qv, desc, map[string]workflow.Processor{"AccessionListAdapter": adapter})
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	if _, err := host.Run(context.Background(), nil); err != nil {
		t.Fatalf("host Run: %v", err)
	}
	if consumed == nil {
		t.Fatal("consumer never ran")
	}
	if consumed.Len() != 2 { // indices 0 and 2 are strong
		t.Errorf("consumer received %d items, want 2: %v", consumed.Len(), consumed.Items())
	}
}

func TestEmbedErrors(t *testing.T) {
	qv := compilePaperView(t)
	host := workflow.New("host")
	// Descriptor references an unregistered adapter.
	desc := &DeploymentDescriptor{Adapters: []AdapterDecl{{Name: "ghost"}}}
	if err := Embed(host, qv, desc, nil); err == nil {
		t.Error("unregistered adapter should fail")
	}
	// Connector via an undeclared adapter.
	qv2 := compilePaperView(t)
	host2 := workflow.New("host2")
	desc2 := &DeploymentDescriptor{Connectors: []ConnectorDecl{
		{From: "x", FromPort: "y", To: "z", ToPort: "w", Via: "undeclared"},
	}}
	if err := Embed(host2, qv2, desc2, nil); err == nil {
		t.Error("undeclared adapter in connector should fail")
	}
}

func TestDeploymentDescriptorRoundTrip(t *testing.T) {
	desc := &DeploymentDescriptor{
		Target:   "protein-id-quality",
		Adapters: []AdapterDecl{{Name: "A"}},
		Connectors: []ConnectorDecl{
			{From: "p", FromPort: "o", To: "q", ToPort: "i", Via: "A"},
			{From: "q", FromPort: "o2", To: "r", ToPort: "i2"},
		},
	}
	data, err := desc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDeployment(data)
	if err != nil {
		t.Fatalf("ParseDeployment: %v", err)
	}
	if back.Target != desc.Target || len(back.Adapters) != 1 || len(back.Connectors) != 2 {
		t.Errorf("round trip = %+v", back)
	}
	if back.Connectors[0].Via != "A" || back.Connectors[1].Via != "" {
		t.Errorf("connectors = %+v", back.Connectors)
	}
	if _, err := ParseDeployment([]byte("not xml")); err == nil {
		t.Error("bad XML should fail")
	}
}

func keysOf(m map[string]*evidence.Map) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func BenchmarkCompilePaperView(b *testing.B) {
	v, _ := qvlang.Parse([]byte(qvlang.PaperViewXML))
	r, err := qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		b.Fatal(err)
	}
	t := &testing.T{}
	c := testCompiler(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compile(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCompiledView(b *testing.B) {
	t := &testing.T{}
	c := func() *Compiled {
		v, _ := qvlang.Parse([]byte(qvlang.PaperViewXML))
		r, _ := qvlang.Resolve(v, ontology.NewIQModel())
		compiled, err := testCompiler(t).Compile(r)
		if err != nil {
			b.Fatal(err)
		}
		return compiled
	}()
	items := make([]evidence.Item, 50)
	for i := range items {
		items[i] = item(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(context.Background(), items); err != nil {
			b.Fatal(err)
		}
	}
}

package qvlang

import (
	"encoding/xml"
	"strings"
	"testing"

	"qurator/internal/condition"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

func TestParsePaperView(t *testing.T) {
	v, err := Parse([]byte(PaperViewXML))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v.Name != "protein-id-quality" {
		t.Errorf("Name = %q", v.Name)
	}
	if len(v.Annotators) != 1 || len(v.Assertions) != 3 || len(v.Actions) != 1 {
		t.Fatalf("structure: %d annotators, %d assertions, %d actions",
			len(v.Annotators), len(v.Assertions), len(v.Actions))
	}
	ann := v.Annotators[0]
	if ann.ServiceName != "ImprintOutputAnnotator" || ann.ServiceType != "q:ImprintOutputAnnotation" {
		t.Errorf("annotator = %+v", ann)
	}
	if ann.Variables.Repo() != "cache" || ann.Variables.IsPersistent() {
		t.Error("annotator variables must be cache + non-persistent")
	}
	if len(ann.Variables.Vars) != 4 {
		t.Errorf("annotator vars = %d", len(ann.Variables.Vars))
	}
	qa := v.Assertions[0]
	if qa.TagName != "HR MC" || qa.TagSynType != "q:score" {
		t.Errorf("first QA = %+v", qa)
	}
	cls := v.Assertions[2]
	if cls.TagSemType != "q:PIScoreClassification" || cls.TagSynType != "q:class" {
		t.Errorf("classifier QA = %+v", cls)
	}
	if v.Actions[0].Filter == nil {
		t.Fatal("action should be a filter")
	}
	if !strings.Contains(v.Actions[0].Filter.Condition, "ScoreClass in q:high, q:mid") {
		t.Errorf("condition = %q", v.Actions[0].Filter.Condition)
	}
}

func TestResolvePaperView(t *testing.T) {
	v, err := Parse([]byte(PaperViewXML))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	// Annotator resolved to the IQ class.
	if r.Annotators[0].Type != ontology.ImprintOutputAnnotation {
		t.Errorf("annotator type = %v", r.Annotators[0].Type)
	}
	if len(r.Annotators[0].Provides) != 4 {
		t.Errorf("annotator provides %d types", len(r.Annotators[0].Provides))
	}
	// Tag variables: HR MC normalised; classifier keyed by its model.
	if key, ok := r.Vars["HR_MC"]; !ok || key != TagKeyFor("HR_MC") {
		t.Errorf("HR_MC var = %v, %v", key, ok)
	}
	if key, ok := r.Vars["ScoreClass"]; !ok || key != ontology.PIScoreClassification {
		t.Errorf("ScoreClass var = %v, %v", key, ok)
	}
	// Evidence → repository association (drives the DE configuration).
	for _, ev := range []rdf.Term{ontology.HitRatio, ontology.Coverage, ontology.Masses, ontology.PeptidesCount} {
		if repo := r.EvidenceRepo[ev]; repo != "cache" {
			t.Errorf("EvidenceRepo[%v] = %q", ev, repo)
		}
		if r.EvidencePersistent[ev] {
			t.Errorf("evidence %v should be non-persistent", ev)
		}
	}
	// The action condition evaluates against a suitable map.
	if len(r.Actions) != 1 || r.Actions[0].Filter == nil {
		t.Fatalf("actions = %+v", r.Actions)
	}
	it := rdf.IRI("urn:lsid:test.org:hit:1")
	m := evidence.NewMap(it)
	m.Set(it, TagKeyFor("HR_MC"), evidence.Float(25))
	m.SetClass(it, ontology.PIScoreClassification, ontology.ClassHigh)
	ok, err := r.Actions[0].Filter.Eval(&condition.Context{Amap: m, Item: it, Vars: r.Vars})
	if err != nil || !ok {
		t.Errorf("paper condition eval = %v, %v", ok, err)
	}
}

func TestResolveErrors(t *testing.T) {
	model := ontology.NewIQModel()
	cases := []struct {
		name string
		xml  string
	}{
		{"annotator without servicetype", `<QualityView><Annotator servicename="a"><variables><var evidence="q:HitRatio"/></variables></Annotator></QualityView>`},
		{"annotator bad type", `<QualityView><Annotator servicename="a" servicetype="q:HitRatio"><variables><var evidence="q:HitRatio"/></variables></Annotator></QualityView>`},
		{"annotator no vars", `<QualityView><Annotator servicename="a" servicetype="q:ImprintOutputAnnotation"><variables/></Annotator></QualityView>`},
		{"bad evidence type", `<QualityView><Annotator servicename="a" servicetype="q:ImprintOutputAnnotation"><variables><var evidence="q:NotEvidence"/></variables></Annotator></QualityView>`},
		{"var without evidence", `<QualityView><Annotator servicename="a" servicetype="q:ImprintOutputAnnotation"><variables><var variablename="x"/></variables></Annotator></QualityView>`},
		{"assertion bad type", `<QualityView><QualityAssertion servicename="s" servicetype="q:ImprintHitEntry" tagname="t"/></QualityView>`},
		{"class without semtype", `<QualityView><QualityAssertion servicename="s" servicetype="q:PIScoreClassifier" tagname="t" tagsyntype="q:class"/></QualityView>`},
		{"bad semtype", `<QualityView><QualityAssertion servicename="s" servicetype="q:PIScoreClassifier" tagname="t" tagsyntype="q:class" tagsemtype="q:HitRatio"/></QualityView>`},
		{"bad syntype", `<QualityView><QualityAssertion servicename="s" servicetype="q:PIScoreClassifier" tagname="t" tagsyntype="q:weird"/></QualityView>`},
		{"action empty", `<QualityView><action name="a"/></QualityView>`},
		{"action both", `<QualityView><action name="a"><filter><condition>x &gt; 1</condition></filter><splitter><branch name="b"><condition>x &gt; 1</condition></branch></splitter></action></QualityView>`},
		{"filter empty condition", `<QualityView><action name="a"><filter><condition></condition></filter></action></QualityView>`},
		{"filter bad condition", `<QualityView><action name="a"><filter><condition>&gt;&gt;&gt;</condition></filter></action></QualityView>`},
		{"undeclared variable", `<QualityView><action name="a"><filter><condition>Ghost &gt; 1</condition></filter></action></QualityView>`},
		{"splitter no branches", `<QualityView><action name="a"><splitter/></action></QualityView>`},
		{"unnamed branch", `<QualityView><action name="a"><splitter><branch><condition>true</condition></branch></splitter></action></QualityView>`},
		{"conflicting var", `<QualityView>
			<QualityAssertion servicename="s1" servicetype="q:HRScoreAssertion" tagname="T"><variables><var variablename="x" evidence="q:HitRatio"/></variables></QualityAssertion>
			<QualityAssertion servicename="s2" servicetype="q:HRScoreAssertion" tagname="T2"><variables><var variablename="x" evidence="q:Masses"/></variables></QualityAssertion>
			</QualityView>`},
		{"evidence in two repos", `<QualityView>
			<QualityAssertion servicename="s1" servicetype="q:HRScoreAssertion" tagname="T"><variables repositoryRef="cache"><var variablename="x" evidence="q:HitRatio"/></variables></QualityAssertion>
			<QualityAssertion servicename="s2" servicetype="q:HRScoreAssertion" tagname="T2"><variables repositoryRef="default"><var variablename="y" evidence="q:HitRatio"/></variables></QualityAssertion>
			</QualityView>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, err := Parse([]byte(c.xml))
			if err != nil {
				return // parse failure is also acceptable rejection
			}
			if _, err := Resolve(v, model); err == nil {
				t.Errorf("Resolve should fail for %s", c.name)
			}
		})
	}
}

func TestResolveSplitterAction(t *testing.T) {
	xmlSrc := `<QualityView name="split-by-class">
	  <QualityAssertion servicename="PIScoreClassifier" servicetype="q:PIScoreClassifier"
	                    tagsemtype="q:PIScoreClassification" tagname="ScoreClass" tagsyntype="q:class">
	    <variables><var variablename="hr" evidence="q:HitRatio"/></variables>
	  </QualityAssertion>
	  <action name="route">
	    <splitter>
	      <branch name="keep"><condition>ScoreClass in q:high</condition></branch>
	      <branch name="review"><condition>ScoreClass in q:mid</condition></branch>
	    </splitter>
	  </action>
	</QualityView>`
	v, err := Parse([]byte(xmlSrc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(r.Actions) != 1 || len(r.Actions[0].Branches) != 2 {
		t.Fatalf("actions = %+v", r.Actions)
	}
	if r.Actions[0].Branches[0].Name != "keep" {
		t.Errorf("branch order: %+v", r.Actions[0].Branches)
	}
}

func TestResolveDefaultsAndQNameConditions(t *testing.T) {
	// No tagname → servicename used; no tagsyntype → score; unprefixed
	// evidence names resolve against the Qurator namespace.
	xmlSrc := `<QualityView>
	  <QualityAssertion servicename="My Score" servicetype="q:HRScoreAssertion">
	    <variables><var evidence="HitRatio"/></variables>
	  </QualityAssertion>
	  <action><filter><condition>My_Score &gt; 10 and HitRatio &gt; 0.2</condition></filter></action>
	</QualityView>`
	v, err := Parse([]byte(xmlSrc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if key, ok := r.Vars["My_Score"]; !ok || key != TagKeyFor("My_Score") {
		t.Errorf("tag var = %v, %v", key, ok)
	}
	if key, ok := r.Vars["HitRatio"]; !ok || key != ontology.HitRatio {
		t.Errorf("evidence var = %v, %v", key, ok)
	}
	if r.View.Name != "unnamed-view" {
		t.Errorf("default name = %q", r.View.Name)
	}
	if r.Actions[0].Name != "action-1" {
		t.Errorf("default action name = %q", r.Actions[0].Name)
	}
}

func TestViewIsDataIndependent(t *testing.T) {
	// "View specifications do not include any reference to input data
	// sets" — the schema has no place for one; the resolved form carries
	// only types and conditions.
	v, _ := Parse([]byte(PaperViewXML))
	data, _ := xml.Marshal(v)
	for _, banned := range []string{"urn:lsid", "dataset", "DataSet", "input"} {
		if strings.Contains(string(data), banned) {
			t.Errorf("view serialisation mentions %q", banned)
		}
	}
}

func TestIdentifiersIn(t *testing.T) {
	got := identifiersIn(`ScoreClass in q:high, q:mid and HR_MC > 20 or name = "quoted ident" and not flag`)
	want := map[string]bool{"ScoreClass": true, "HR_MC": true, "name": true, "flag": true}
	if len(got) != len(want) {
		t.Fatalf("identifiers = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected identifier %q", id)
		}
	}
}

package library

import (
	"strings"
	"testing"
	"time"

	"qurator/internal/ontology"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
)

const credibilityOnlyView = `<QualityView name="credibility-check">
  <QualityAssertion servicename="CurationCredibility" servicetype="q:CurationCredibility"
                    tagsemtype="q:CredibilityClassification" tagname="CredClass" tagsyntype="q:class">
    <variables repositoryRef="default">
      <var variablename="code" evidence="q:EvidenceCode"/>
    </variables>
  </QualityAssertion>
  <action name="keep"><filter><condition>CredClass in q:credible</condition></filter></action>
</QualityView>`

func newLib(t *testing.T) *Library {
	t.Helper()
	return New(ontology.NewIQModel())
}

func TestPublishDerivesRequirements(t *testing.T) {
	l := newLib(t)
	e, err := l.Publish(Entry{
		Name:       "protein-id-quality",
		Author:     "aberdeen-mcb",
		Dimensions: []rdf.Term{ontology.Accuracy},
		ViewXML:    qvlang.PaperViewXML,
	})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// The paper view's annotator produces all QA inputs, so nothing is
	// required from the consumer.
	if len(e.RequiredEvidence) != 0 {
		t.Errorf("RequiredEvidence = %v, want none (annotator covers all inputs)", e.RequiredEvidence)
	}
	if len(e.ProducedEvidence) != 4 {
		t.Errorf("ProducedEvidence = %v", e.ProducedEvidence)
	}
	if len(e.OperatorClasses) != 4 { // annotator + 3 QAs
		t.Errorf("OperatorClasses = %v", e.OperatorClasses)
	}
	if e.Published.IsZero() {
		t.Error("Published not stamped")
	}

	// A view with no annotator requires its QA inputs from the consumer.
	e2, err := l.Publish(Entry{
		Name:       "credibility-check",
		Author:     "manchester",
		Dimensions: []rdf.Term{ontology.Credibility},
		ViewXML:    credibilityOnlyView,
	})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if len(e2.RequiredEvidence) != 1 || e2.RequiredEvidence[0] != ontology.EvidenceCode {
		t.Errorf("RequiredEvidence = %v, want [EvidenceCode]", e2.RequiredEvidence)
	}
}

func TestPublishValidation(t *testing.T) {
	l := newLib(t)
	cases := []Entry{
		{},
		{Name: "x"},
		{Name: "x", ViewXML: "not xml"},
		{Name: "x", ViewXML: `<QualityView><action name="a"/></QualityView>`},                // invalid view
		{Name: "x", ViewXML: qvlang.PaperViewXML, Dimensions: []rdf.Term{ontology.HitRatio}}, // not a dimension
	}
	for i, e := range cases {
		if _, err := l.Publish(e); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestGetListRemove(t *testing.T) {
	l := newLib(t)
	l.Publish(Entry{Name: "b", Author: "x", ViewXML: qvlang.PaperViewXML})
	l.Publish(Entry{Name: "a", Author: "y", ViewXML: credibilityOnlyView})
	if got := l.List(); len(got) != 2 || got[0].Name != "a" {
		t.Errorf("List = %v", got)
	}
	e, ok := l.Get("b")
	if !ok || e.Author != "x" {
		t.Errorf("Get = %+v, %v", e, ok)
	}
	// Returned entries are copies.
	e.Author = "hacked"
	again, _ := l.Get("b")
	if again.Author != "x" {
		t.Error("Get leaked internal state")
	}
}

func TestFindApplicable(t *testing.T) {
	l := newLib(t)
	l.Publish(Entry{Name: "self-contained", ViewXML: qvlang.PaperViewXML})
	l.Publish(Entry{Name: "needs-codes", ViewXML: credibilityOnlyView})

	// With no evidence at all, only the self-contained view applies.
	got := l.FindApplicable(nil)
	if len(got) != 1 || got[0].Name != "self-contained" {
		t.Errorf("FindApplicable(nil) = %v", names(got))
	}
	// Offering evidence codes unlocks the credibility view.
	got = l.FindApplicable([]rdf.Term{ontology.EvidenceCode})
	if len(got) != 2 {
		t.Errorf("FindApplicable(EvidenceCode) = %v", names(got))
	}
	// Subsumption: offering a subclass of the required evidence counts.
	model := ontology.NewIQModel()
	sub := ontology.Q("GOEvidenceCode")
	model.MustDefineClass(sub, ontology.EvidenceCode)
	l2 := New(model)
	l2.Publish(Entry{Name: "needs-codes", ViewXML: credibilityOnlyView})
	got = l2.FindApplicable([]rdf.Term{sub})
	if len(got) != 1 {
		t.Errorf("subclass evidence should satisfy the requirement: %v", names(got))
	}
}

func TestFindByDimension(t *testing.T) {
	l := newLib(t)
	l.Publish(Entry{Name: "acc", ViewXML: qvlang.PaperViewXML, Dimensions: []rdf.Term{ontology.Accuracy}})
	l.Publish(Entry{Name: "cred", ViewXML: credibilityOnlyView, Dimensions: []rdf.Term{ontology.Credibility}})
	if got := l.FindByDimension(ontology.Accuracy); len(got) != 1 || got[0].Name != "acc" {
		t.Errorf("FindByDimension(Accuracy) = %v", names(got))
	}
	if got := l.FindByDimension(ontology.Currency); len(got) != 0 {
		t.Errorf("FindByDimension(Currency) = %v", names(got))
	}
}

func TestGraphRoundTrip(t *testing.T) {
	l := newLib(t)
	published := time.Date(2006, 9, 12, 0, 0, 0, 0, time.UTC) // VLDB'06 opening day
	l.Publish(Entry{
		Name:        "protein-id-quality",
		Author:      "aberdeen-mcb",
		Description: "filters PMF identifications by HR/MC quality",
		Dimensions:  []rdf.Term{ontology.Accuracy},
		ViewXML:     qvlang.PaperViewXML,
		Published:   published,
	})
	g := l.ToGraph()
	back, err := FromGraph(g, ontology.NewIQModel())
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	e, ok := back.Get("protein-id-quality")
	if !ok {
		t.Fatal("entry lost in round trip")
	}
	if e.Author != "aberdeen-mcb" || e.Description == "" {
		t.Errorf("metadata lost: %+v", e)
	}
	if !e.Published.Equal(published) {
		t.Errorf("published = %v, want %v", e.Published, published)
	}
	if len(e.Dimensions) != 1 || e.Dimensions[0] != ontology.Accuracy {
		t.Errorf("dimensions = %v", e.Dimensions)
	}
	// The re-imported view still resolves and derives the same
	// requirements.
	if len(e.ProducedEvidence) != 4 {
		t.Errorf("derived requirements lost: %+v", e)
	}
	if !strings.Contains(e.ViewXML, "QualityView") {
		t.Error("view source lost")
	}
}

func TestFromGraphRejectsUnresolvableViews(t *testing.T) {
	// A peer's view using classes the local model lacks must be rejected
	// with a named error, not silently dropped.
	foreign := `<QualityView name="alien">
	  <QualityAssertion servicename="s" servicetype="q:AlienQA" tagname="t">
	    <variables><var evidence="q:HitRatio"/></variables>
	  </QualityAssertion>
	  <action name="a"><filter><condition>t &gt; 1</condition></filter></action>
	</QualityView>`
	// Build the graph by hand with a model that knows AlienQA...
	richModel := ontology.NewIQModel()
	richModel.MustDefineClass(ontology.Q("AlienQA"), ontology.QualityAssertion)
	rich := New(richModel)
	if _, err := rich.Publish(Entry{Name: "alien", ViewXML: foreign}); err != nil {
		t.Fatalf("publish under rich model: %v", err)
	}
	// ...then import under the plain model.
	if _, err := FromGraph(rich.ToGraph(), ontology.NewIQModel()); err == nil {
		t.Error("import of unresolvable view should fail")
	} else if !strings.Contains(err.Error(), "alien") {
		t.Errorf("error should name the view: %v", err)
	}
}

func names(es []*Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return out
}

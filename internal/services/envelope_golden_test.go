package services

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

// goldenEnvelopes builds envelopes the way services and the data plane
// do — NewEnvelope, SetMap, SetGroups — over every value kind, an item
// without evidence, XML-special characters, a fault, and splitter groups
// with an absent and an empty group.
func goldenEnvelopes() []*Envelope {
	m := evidence.NewMap(item(0), item(1), item(2))
	m.Set(item(0), ontology.HitRatio, evidence.Float(0.625))
	m.Set(item(0), ontology.Coverage, evidence.Float(1e-7))
	m.Set(item(0), ontology.PeptidesCount, evidence.Int(-12))
	m.Set(item(1), ontology.EvidenceCode, evidence.String_(`TAS <&> "quoted" 'single'`))
	m.Set(item(1), ontology.Q("flag"), evidence.Bool(true))
	m.SetClass(item(1), ontology.PIScoreClassification, ontology.ClassHigh)
	// item(2) carries no evidence.

	req := NewEnvelope(m)
	req.Service = "HR_MC_score"
	req.Operation = "filter"
	req.Config.Set("condition", "hr >= 0.5 && mc < 1")
	req.Config.Set(VarParam("hr"), ontology.HitRatio.Value())

	reset := &Envelope{Service: "reset"}
	reset.SetMap(m)
	reset.SetMap(evidence.NewMap(item(3)))

	empty := NewEnvelope(nil)
	empty.Error = "boom"

	high := evidence.NewMap(item(0))
	high.Set(item(0), ontology.HitRatio, evidence.Float(0.9))
	split := &Envelope{Service: "act", Operation: "split"}
	split.SetGroups(map[string]*evidence.Map{
		"high":    high,
		"low":     evidence.NewMap(),
		"default": evidence.NewMap(item(1), rdf.IRI("urn:x")),
	}, []string{"high", "absent", "low", "default"})

	noGroups := &Envelope{Operation: "split"}
	noGroups.SetGroups(nil, []string{"default"})

	return []*Envelope{req, reset, empty, split, noGroups}
}

// marshalAll renders the envelopes one after another.
func marshalAll(t *testing.T, envs []*Envelope) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, e := range envs {
		data, err := e.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteString("\n")
	}
	return b.Bytes()
}

// TestMarshalGolden pins the wire bytes: envelopes built in-process must
// marshal to exactly the XML the encoding produced when SetMap and
// SetGroups encoded eagerly (testdata/envelope_golden.xml was written by
// that encoder).
func TestMarshalGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "envelope_golden.xml"))
	if err != nil {
		t.Fatal(err)
	}
	envs := goldenEnvelopes()
	if got := marshalAll(t, envs); !bytes.Equal(got, want) {
		t.Fatalf("Marshal output differs from the golden encoding:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Marshal encodes into a copy: the typed envelopes are left as they
	// were, so a second pass yields the same bytes.
	for i, e := range envs {
		if len(e.DataSet.Items) != 0 || len(e.Annotations.Entries) != 0 || e.Groups != nil {
			t.Errorf("envelope %d: Marshal wrote the wire fields of the envelope itself", i)
		}
	}
	if got := marshalAll(t, envs); !bytes.Equal(got, want) {
		t.Fatal("second Marshal differs from the first")
	}
}

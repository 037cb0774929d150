package qa

import (
	"fmt"
	"math/rand"
	"testing"

	"qurator/internal/condition"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

// syntheticTraining builds a labelled set where good items have HR > 0.5
// and MC > 0.3 (with some noise when noisy is true).
func syntheticTraining(n int, noisy bool, seed int64) *TrainingSet {
	rng := rand.New(rand.NewSource(seed))
	m := evidence.NewMap()
	ts := &TrainingSet{
		Amap:     m,
		Features: []rdf.Term{ontology.HitRatio, ontology.Coverage},
	}
	for i := 0; i < n; i++ {
		it := rdf.IRI(fmt.Sprintf("urn:lsid:train.org:item:%d", i))
		hr, mc := rng.Float64(), rng.Float64()
		m.Set(it, ontology.HitRatio, evidence.Float(hr))
		m.Set(it, ontology.Coverage, evidence.Float(mc))
		good := hr > 0.5 && mc > 0.3
		if noisy && rng.Float64() < 0.05 {
			good = !good
		}
		ts.Examples = append(ts.Examples, Example{Item: it, Good: good})
	}
	return ts
}

var learnVars = condition.Bindings{
	"hr": ontology.HitRatio,
	"mc": ontology.Coverage,
}

func TestLearnStumpsRecoversRule(t *testing.T) {
	ts := syntheticTraining(200, false, 1)
	tree, err := LearnStumps(ts, ontology.Q("LearnedQA"), ontology.PIScoreClassification,
		ontology.ClassHigh, ontology.ClassLow, learnVars, StumpParams{MaxDepth: 3})
	if err != nil {
		t.Fatalf("LearnStumps: %v", err)
	}
	acc, err := EvaluateClassifier(tree, ts, ontology.ClassHigh)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Errorf("training accuracy = %.3f, want ≥ 0.95 on a clean separable rule", acc)
	}
	// Generalisation: a fresh sample from the same distribution.
	test := syntheticTraining(200, false, 2)
	acc, err = EvaluateClassifier(tree, test, ontology.ClassHigh)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("test accuracy = %.3f, want ≥ 0.9", acc)
	}
}

func TestLearnStumpsNoisyLabels(t *testing.T) {
	ts := syntheticTraining(300, true, 3)
	tree, err := LearnStumps(ts, ontology.Q("LearnedQA"), ontology.PIScoreClassification,
		ontology.ClassHigh, ontology.ClassLow, learnVars, StumpParams{MaxDepth: 2, MinLeaf: 10})
	if err != nil {
		t.Fatalf("LearnStumps: %v", err)
	}
	acc, err := EvaluateClassifier(tree, ts, ontology.ClassHigh)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("accuracy with 5%% label noise = %.3f, want ≥ 0.85", acc)
	}
}

func TestLearnedTreeIsAnOrdinaryQA(t *testing.T) {
	// The learned model must be usable exactly like a hand-built QA:
	// Assert over a fresh map and read classifications.
	ts := syntheticTraining(100, false, 4)
	tree, err := LearnStumps(ts, ontology.Q("LearnedQA"), ontology.PIScoreClassification,
		ontology.ClassHigh, ontology.ClassLow, learnVars, StumpParams{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Class() != ontology.Q("LearnedQA") {
		t.Error("wrong class IRI")
	}
	m := evidence.NewMap()
	good := rdf.IRI("urn:good")
	bad := rdf.IRI("urn:bad")
	m.Set(good, ontology.HitRatio, evidence.Float(0.9))
	m.Set(good, ontology.Coverage, evidence.Float(0.8))
	m.Set(bad, ontology.HitRatio, evidence.Float(0.1))
	m.Set(bad, ontology.Coverage, evidence.Float(0.05))
	if err := tree.Assert(m); err != nil {
		t.Fatal(err)
	}
	if m.Class(good, ontology.PIScoreClassification) != ontology.ClassHigh {
		t.Error("clear positive misclassified")
	}
	if m.Class(bad, ontology.PIScoreClassification) != ontology.ClassLow {
		t.Error("clear negative misclassified")
	}
}

func TestLearnValidation(t *testing.T) {
	// Empty, single-class and unbound-feature sets are rejected.
	empty := &TrainingSet{}
	if _, err := LearnStumps(empty, ontology.Q("X"), ontology.PIScoreClassification,
		ontology.ClassHigh, ontology.ClassLow, learnVars, StumpParams{}); err == nil {
		t.Error("empty set should fail")
	}
	oneClass := syntheticTraining(50, false, 5)
	for i := range oneClass.Examples {
		oneClass.Examples[i].Good = true
	}
	if _, err := LearnStumps(oneClass, ontology.Q("X"), ontology.PIScoreClassification,
		ontology.ClassHigh, ontology.ClassLow, learnVars, StumpParams{}); err == nil {
		t.Error("single-class set should fail")
	}
	unbound := syntheticTraining(50, false, 6)
	if _, err := LearnStumps(unbound, ontology.Q("X"), ontology.PIScoreClassification,
		ontology.ClassHigh, ontology.ClassLow, condition.Bindings{}, StumpParams{}); err == nil {
		t.Error("unbound features should fail")
	}
	foreign := syntheticTraining(10, false, 7)
	foreign.Examples = append(foreign.Examples, Example{Item: rdf.IRI("urn:stranger"), Good: true})
	if _, err := LearnStumps(foreign, ontology.Q("X"), ontology.PIScoreClassification,
		ontology.ClassHigh, ontology.ClassLow, learnVars, StumpParams{}); err == nil {
		t.Error("example outside the map should fail")
	}
}

func BenchmarkLearnStumps(b *testing.B) {
	ts := syntheticTraining(300, true, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LearnStumps(ts, ontology.Q("L"), ontology.PIScoreClassification,
			ontology.ClassHigh, ontology.ClassLow, learnVars, StumpParams{MaxDepth: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

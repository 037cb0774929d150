package stream_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"qurator/internal/annotstore"
	"qurator/internal/binding"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/qa"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/services"
)

func hit(i int) evidence.Item {
	return rdf.IRI(fmt.Sprintf("urn:lsid:test.org:hit:%d", i))
}

func hitIndex(it evidence.Item) int {
	s := it.Value()
	n, err := strconv.Atoi(s[strings.LastIndex(s, ":")+1:])
	if err != nil {
		panic(err)
	}
	return n
}

// identityAnnotator derives evidence from the item identity alone, so the
// same item gets the same evidence regardless of which window (or which
// run) it arrives in — the determinism the batch/stream comparison rests
// on. Even-indexed hits are strong, odd weak.
func identityAnnotator() ops.Annotator {
	return ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Types: []rdf.Term{
			ontology.HitRatio, ontology.Coverage, ontology.Masses, ontology.PeptidesCount,
		},
		Fn: func(items []evidence.Item, repo annotstore.Store) error {
			for _, it := range items {
				i := hitIndex(it)
				hr, mc := 0.9, 0.8
				if i%2 == 1 {
					hr, mc = 0.15, 0.1
				}
				puts := []annotstore.Annotation{
					{Item: it, Type: ontology.HitRatio, Value: evidence.Float(hr)},
					{Item: it, Type: ontology.Coverage, Value: evidence.Float(mc)},
					{Item: it, Type: ontology.Masses, Value: evidence.Int(int64(10 + i%7))},
					{Item: it, Type: ontology.PeptidesCount, Value: evidence.Int(8)},
				}
				for _, a := range puts {
					a.Source = ontology.ImprintOutputAnnotation
					if err := repo.Put(a); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}

// compileStack assembles the framework plumbing for one compiled view:
// deployed services, bindings, repositories — mirroring what the root
// Framework does, without importing it (the stream package must stay
// importable from the root package).
func compileStack(t testing.TB, annotator ops.Annotator) *compiler.Compiler {
	t.Helper()
	model := ontology.NewIQModel()
	repos := annotstore.NewRegistry()
	local := services.NewRegistry()
	local.Add(&services.AnnotatorService{
		ServiceName:  "ImprintOutputAnnotator",
		Annotator:    annotator,
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
	return &compiler.Compiler{
		Bindings:     bindings,
		Resolver:     &binding.Resolver{Local: local},
		Repositories: repos,
	}
}

// compilePaperView compiles the §5.1 view over the identity annotator.
func compilePaperView(t testing.TB) *compiler.Compiled {
	t.Helper()
	return compileViewXML(t, qvlang.PaperViewXML, identityAnnotator())
}

func compileViewXML(t testing.TB, xml string, annotator ops.Annotator) *compiler.Compiled {
	t.Helper()
	return compileWith(t, compileStack(t, annotator), xml)
}

// compileWith compiles a view XML against a prepared stack.
func compileWith(t testing.TB, comp *compiler.Compiler, xml string) *compiler.Compiled {
	t.Helper()
	v, err := qvlang.Parse([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	r, err := qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatal(err)
	}
	c, err := comp.Compile(r)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

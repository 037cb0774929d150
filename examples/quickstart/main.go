// Quickstart: the smallest end-to-end tour of the Qurator public API.
//
// We have a collection of data items with two numeric quality-evidence
// values each. We (1) deploy an annotator that computes the evidence,
// (2) compile the paper's §5.1 quality view, (3) run it, and (4) edit the
// action condition and run again — the framework's core loop.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"qurator"
	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/rdf"
)

func main() {
	f := qurator.New()

	// 1. Deploy the standard QA library (the paper's score QAs and the
	// three-way classifier) and a toy annotator. The annotator plays the
	// role of Imprint's output capture: it attaches Hit Ratio and Mass
	// Coverage evidence to each item.
	if err := f.DeployStandardLibrary(); err != nil {
		log.Fatal(err)
	}
	quality := map[string]float64{
		"alpha": 0.92, "beta": 0.85, "gamma": 0.55, "delta": 0.30,
		"epsilon": 0.12, "zeta": 0.08,
	}
	err := f.DeployAnnotator("ImprintOutputAnnotator", ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Types:    []rdf.Term{ontology.HitRatio, ontology.Coverage, ontology.Masses, ontology.PeptidesCount},
		Fn: func(items []evidence.Item, repo annotstore.Store) error {
			for _, item := range items {
				name := ontology.LocalName(item)
				s := quality[name]
				for _, a := range []qurator.Annotation{
					{Item: item, Type: ontology.HitRatio, Value: evidence.Float(s)},
					{Item: item, Type: ontology.Coverage, Value: evidence.Float(s * 0.9)},
					{Item: item, Type: ontology.Masses, Value: evidence.Int(20)},
					{Item: item, Type: ontology.PeptidesCount, Value: evidence.Int(7)},
				} {
					if err := repo.Put(a); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The data set: items identified by LSID-style URIs.
	var items []qurator.Item
	for _, name := range []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"} {
		items = append(items, qurator.NewItem("urn:lsid:example.org:demo:"+name))
	}

	// 3. Compile and run the paper's quality view.
	compiled, err := f.CompileView([]byte(qurator.PaperViewXML))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled quality workflow:")
	fmt.Println(compiled.Describe())

	if err := f.Repositories.ClearCaches(); err != nil {
		log.Fatal(err)
	}
	out, err := compiled.Run(context.Background(), items)
	if err != nil {
		log.Fatal(err)
	}
	report := func(label string, out map[string]*qurator.Map) {
		accepted := out["filter_top_k_score:accepted"]
		fmt.Printf("%s: kept %d of %d items:\n", label, accepted.Len(), len(items))
		for _, item := range accepted.Items() {
			cls := accepted.Class(item, ontology.PIScoreClassification)
			score, _ := accepted.Get(item, qurator.Q("tag/HR_MC")).AsFloat()
			fmt.Printf("  %-10s class=%-5s HR_MC=%.1f\n",
				ontology.LocalName(item), ontology.LocalName(cls), score)
		}
	}
	report("\ndefault condition (ScoreClass in q:high, q:mid and HR_MC > 20)", out)

	// 4. Explore: edit the condition and re-run — no recompilation, no
	// re-annotation, just a different lens over the same evidence.
	if err := compiled.SetFilterCondition("filter top k score", "ScoreClass in q:high"); err != nil {
		log.Fatal(err)
	}
	out, err = compiled.Run(context.Background(), items)
	if err != nil {
		log.Fatal(err)
	}
	report("\nstricter condition (ScoreClass in q:high)", out)
}

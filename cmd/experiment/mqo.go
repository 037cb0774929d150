package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"qurator/internal/annotstore"
	"qurator/internal/binding"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/services"
	"qurator/internal/telemetry"
)

// The MQO experiment measures workflow-level common-subexpression
// elimination (compiler.MergeViews): a fleet of views drawn from a small
// pool of QA families — the paper's §7 observation that views are
// reusable quality knowledge, so registered views overlap heavily — is
// enacted first independently (N full enactments) and then as ONE merged
// plan in which each shared annotator/enrichment/QA prefix runs once.
// Every quality service carries a fixed simulated latency, standing in
// for the network round-trip that dominates real enactments. The built-in
// tripwire re-checks the MQO contract: every view's merged outputs must
// be bit-identical to its independent enactment.

// The full-size fleet: mqoViews views drawing on mqoFamilies shared QA
// families over mqoItems items, every quality service sleeping
// mqoLatency per invocation.
const (
	mqoViews    = 100
	mqoFamilies = 20
	mqoItems    = 24
	mqoLatency  = 2 * time.Millisecond
)

// mqoMaxRatio is the acceptance ceiling: a merged fleet enactment must
// cost at most this fraction of enacting every view independently.
const mqoMaxRatio = 0.35

// synQA is a synthetic scoring QA with simulated service latency: one
// fixed delay per invocation (the network round-trip), then a
// deterministic per-item score derived from the HitRatio evidence.
type synQA struct {
	class rdf.Term
	tag   rdf.Term
	gain  float64
	delay time.Duration
}

func (s *synQA) Class() rdf.Term      { return s.class }
func (s *synQA) Requires() []rdf.Term { return []rdf.Term{ontology.HitRatio} }
func (s *synQA) Provides() []rdf.Term { return []rdf.Term{s.tag} }
func (s *synQA) ItemWise() bool       { return true }
func (s *synQA) Assert(m *evidence.Map) error {
	time.Sleep(s.delay)
	for _, it := range m.Items() {
		hr, ok := m.Get(it, ontology.HitRatio).AsFloat()
		if !ok {
			return fmt.Errorf("mqo: item %v lacks HitRatio", it)
		}
		m.Set(it, s.tag, evidence.Float(math.Round(100*hr)+s.gain))
	}
	return nil
}

// mqoFleet is the compiled synthetic view fleet.
type mqoFleet struct {
	views    []*compiler.Compiled
	families int
	// sharedFraction: shared quality procs per view / total per view.
	sharedFraction float64
}

// buildMQOFleet compiles viewCount views over one service stack: a single
// shared annotator, `families` shared QA services (each view declares
// four of them, round-robin), and one private QA per view. With four of
// five QAs (plus annotator and enrichment) common to many views, ~86% of
// each view's quality structure is shared — the "80% shared" fleet shape
// of the acceptance scenario.
func buildMQOFleet(viewCount, families int, delay time.Duration) (*mqoFleet, error) {
	model := ontology.NewIQModel()
	synAnnotation := ontology.Q("SynAnnotation")
	model.MustDefineClass(synAnnotation, ontology.AnnotationFunction)

	repos := annotstore.NewRegistry()
	local := services.NewRegistry()
	local.Add(&services.AnnotatorService{
		ServiceName: "SynAnnotator",
		Annotator: ops.AnnotatorFunc{
			ClassIRI: synAnnotation,
			Types:    []rdf.Term{ontology.HitRatio},
			Fn: func(items []evidence.Item, repo annotstore.Store) error {
				time.Sleep(delay)
				for _, it := range items {
					idx := mqoItemIndex(it)
					if err := repo.Put(annotstore.Annotation{
						Item:   it,
						Type:   ontology.HitRatio,
						Value:  evidence.Float(float64(idx%10+1) / 10),
						Source: synAnnotation,
					}); err != nil {
						return err
					}
				}
				return nil
			},
		},
		Repositories: repos,
	})
	bindings := binding.NewRegistry(model)
	bindings.MustBind(binding.Binding{
		Concept: synAnnotation, Kind: binding.ServiceResource, Locator: "local:SynAnnotator",
	})
	addQA := func(name, tagName string, gain float64) {
		concept := ontology.Q(name)
		model.MustDefineClass(concept, ontology.QualityAssertion)
		local.Add(&services.AssertionService{
			ServiceName: name,
			QA: &synQA{
				class: concept,
				tag:   qvlang.TagKeyFor(tagName),
				gain:  gain,
				delay: delay,
			},
		})
		bindings.MustBind(binding.Binding{
			Concept: concept, Kind: binding.ServiceResource, Locator: "local:" + name,
		})
	}
	for f := 0; f < families; f++ {
		addQA(fmt.Sprintf("SynQA%02d", f), fmt.Sprintf("T%02d", f), float64(f))
	}
	for i := 0; i < viewCount; i++ {
		addQA(fmt.Sprintf("PrivQA%03d", i), fmt.Sprintf("P%03d", i), 100+float64(i))
	}

	comp := &compiler.Compiler{
		Bindings:     bindings,
		Resolver:     &binding.Resolver{Local: local},
		Repositories: repos,
	}
	fleet := &mqoFleet{families: families}
	const sharedPerView = 4
	for i := 0; i < viewCount; i++ {
		var qas strings.Builder
		for s := 0; s < sharedPerView; s++ {
			f := (i + s) % families
			fmt.Fprintf(&qas, qaFragment, fmt.Sprintf("SynQA%02d", f), fmt.Sprintf("T%02d", f))
		}
		fmt.Fprintf(&qas, qaFragment, fmt.Sprintf("PrivQA%03d", i), fmt.Sprintf("P%03d", i))
		threshold := 25 + (i*7)%50
		xml := fmt.Sprintf(mqoViewXML, fmt.Sprintf("mqo-view-%03d", i), qas.String(),
			fmt.Sprintf("T%02d", i%families), threshold)
		v, err := qvlang.Parse([]byte(xml))
		if err != nil {
			return nil, fmt.Errorf("mqo: view %d: %w", i, err)
		}
		r, err := qvlang.Resolve(v, model)
		if err != nil {
			return nil, fmt.Errorf("mqo: view %d: %w", i, err)
		}
		c, err := comp.Compile(r)
		if err != nil {
			return nil, fmt.Errorf("mqo: view %d: %w", i, err)
		}
		fleet.views = append(fleet.views, c)
	}
	// Per view: 1 annotator + 1 enrichment + 4 shared QAs are shared; the
	// private QA is not. (Consolidations are per-view plumbing, actions
	// are per-view by design — neither is a quality service.)
	fleet.sharedFraction = float64(2+sharedPerView) / float64(2+sharedPerView+1)
	return fleet, nil
}

const mqoViewXML = `<QualityView name="%s">
  <Annotator servicename="SynAnnotator" servicetype="q:SynAnnotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
    </variables>
  </Annotator>
%s  <action name="keep scored">
    <filter>
      <condition>%s &gt; %d</condition>
    </filter>
  </action>
</QualityView>`

const qaFragment = `  <QualityAssertion servicename="%s" servicetype="q:%[1]s"
                    tagname="%s" tagsyntype="q:score">
    <variables repositoryRef="cache">
      <var variablename="hr" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
`

func mqoItem(i int) evidence.Item {
	return rdf.IRI(fmt.Sprintf("urn:lsid:qurator.org:mqo:%d", i))
}

func mqoItemIndex(it evidence.Item) int {
	s := it.Value()
	var idx int
	fmt.Sscanf(s[strings.LastIndex(s, ":")+1:], "%d", &idx)
	return idx
}

// viewFingerprint canonically encodes one view's outputs, sorted by
// output name — the bit-identity tripwire's unit of comparison.
func viewFingerprint(outputs map[string]*evidence.Map) (string, error) {
	names := make([]string, 0, len(outputs))
	for name := range outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&b, "%s:", name)
		if err := outputs[name].WriteCanonical(&b); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// measureMQO enacts the fleet independently and merged, repeats times
// each, checking bit-identity on every repeat. The record's params are
// the fleet shape; shared_fraction is the fraction of each view's
// quality-service processors that at least one sibling also uses;
// shared_prefixes and saved_per_enactment come from the merged plan (how
// many quality processors serve ≥ 2 views, and how many invocations one
// merged enactment avoids); ratio is merged best / independent best.
func measureMQO(viewCount, families, items int, delay time.Duration, repeats int) (*record, error) {
	if repeats < 1 {
		repeats = 1
	}
	fleet, err := buildMQOFleet(viewCount, families, delay)
	if err != nil {
		return nil, err
	}
	mv, err := compiler.MergeViews(fleet.views...)
	if err != nil {
		return nil, err
	}
	rec := newRecord("mqo", map[string]any{
		"views": viewCount, "qa_families": families, "items": items,
		"latency_ms": float64(delay.Microseconds()) / 1000, "repeats": repeats,
	})
	rec.metric("shared_fraction", "fraction", fleet.sharedFraction, 1)
	rec.metric("shared_prefixes", "count", float64(mv.SharedPrefixes()), 1)
	rec.metric("saved_per_enactment", "count", float64(mv.SavedPerEnactment()), 1)
	data := make([]evidence.Item, items)
	for i := range data {
		data[i] = mqoItem(i)
	}
	ctx := context.Background()

	var independentMS, mergedMS []float64
	independent := make(map[string]string, viewCount)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		for _, v := range fleet.views {
			out, err := v.Run(ctx, data)
			if err != nil {
				return nil, fmt.Errorf("mqo: independent %s: %w", v.Name(), err)
			}
			print, err := viewFingerprint(out)
			if err != nil {
				return nil, err
			}
			if prev, ok := independent[v.Name()]; ok && prev != print {
				return nil, fmt.Errorf("mqo: independent enactment of %s is not deterministic", v.Name())
			}
			independent[v.Name()] = print
		}
		independentMS = append(independentMS, float64(time.Since(start).Microseconds())/1000)
	}

	equivalent := true
	for r := 0; r < repeats; r++ {
		start := time.Now()
		results, err := mv.Enact(ctx, data)
		if err != nil {
			return nil, fmt.Errorf("mqo: merged enactment: %w", err)
		}
		mergedMS = append(mergedMS, float64(time.Since(start).Microseconds())/1000)
		for name, vr := range results {
			if vr.Err != nil {
				return nil, fmt.Errorf("mqo: merged view %s: %w", name, vr.Err)
			}
			print, err := viewFingerprint(vr.Outputs)
			if err != nil {
				return nil, err
			}
			if print != independent[name] {
				equivalent = false
			}
		}
	}

	mean := func(runs []float64) float64 {
		var s float64
		for _, v := range runs {
			s += v
		}
		return s / float64(len(runs))
	}
	independentBest, mergedBest := slices.Min(independentMS), slices.Min(mergedMS)
	ratio := mergedBest / independentBest
	rec.metric("independent/best_ms", "ms", independentBest, repeats)
	rec.metric("independent/mean_ms", "ms", mean(independentMS), repeats)
	rec.metric("merged/best_ms", "ms", mergedBest, repeats)
	rec.metric("merged/mean_ms", "ms", mean(mergedMS), repeats)
	rec.metric("ratio", "fraction", ratio, repeats)
	rec.check("equivalent", equivalent, "every view's merged outputs bit-identical to its independent enactment, every repeat")
	rec.check("ratio", ratio <= mqoMaxRatio, "merged/independent = %.3f, ceiling %.2f", ratio, mqoMaxRatio)
	rec.Registry = telemetry.Default.Snapshot()
	return rec, nil
}

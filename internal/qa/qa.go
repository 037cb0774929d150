// Package qa provides the reusable quality-assertion library of the
// running example (paper §1.1, §5.1): protein-identification scores over
// Hit Ratio and Mass Coverage, the three-way avg±stddev classifier, a
// generic decision-tree classifier for "arbitrary heavy-weight decision
// models" (§4), and the curation-credibility QA built on Uniprot-style
// evidence codes (§3, [16]).
//
// QAs are collection-scoped (classification thresholds derive from the
// whole run's score distribution) and depend only on evidence, never on
// the data itself, so each QA applies to any data set annotated with its
// required evidence types.
package qa

import (
	"fmt"
	"math"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/rdf"
)

// ScoreFunc computes a score from the evidence values of one item. Inputs
// are keyed by evidence type; missing evidence arrives as Null values.
// The map is reused for the next item, so a ScoreFunc must not retain it.
type ScoreFunc func(in map[rdf.Term]evidence.Value) (float64, error)

// Score is a generic scoring QA: it applies a ScoreFunc to each item and
// writes the result under a tag key.
type Score struct {
	ClassIRI rdf.Term
	// Tag is the map key the score is written under (the view's tagname).
	Tag rdf.Term
	// Inputs are the required evidence types.
	Inputs []rdf.Term
	Fn     ScoreFunc
	// SkipMissing, when set, silently skips items missing some input
	// evidence instead of failing the assertion.
	SkipMissing bool
}

// Class implements ops.QualityAssertion.
func (s *Score) Class() rdf.Term { return s.ClassIRI }

// Requires implements ops.QualityAssertion.
func (s *Score) Requires() []rdf.Term { return s.Inputs }

// Provides implements ops.QualityAssertion.
func (s *Score) Provides() []rdf.Term { return []rdf.Term{s.Tag} }

// ItemWise implements ops.ItemWise: each item's score is a function of
// its own evidence vector only, so scoring shards freely.
func (s *Score) ItemWise() bool { return true }

// Assert implements ops.QualityAssertion.
func (s *Score) Assert(m *evidence.Map) error {
	if s.Fn == nil {
		return fmt.Errorf("qa: score %v has no function", s.ClassIRI)
	}
	in := make(map[rdf.Term]evidence.Value, len(s.Inputs))
	for i := 0; i < m.Len(); i++ {
		item := m.ItemAt(i)
		for _, typ := range s.Inputs {
			in[typ] = m.Get(item, typ)
		}
		// Missing-input handling is delegated to the score function: some
		// inputs are alternatives (q:coverage vs q:MassCoverage) or
		// optional (q:peptidesCount), so only the function knows whether
		// the vector is sufficient.
		score, err := s.Fn(in)
		if err != nil {
			if s.SkipMissing {
				continue
			}
			return fmt.Errorf("qa: score %v on %v: %w", s.ClassIRI, item, err)
		}
		m.Set(item, s.Tag, evidence.Float(score))
	}
	return nil
}

func needFloat(in map[rdf.Term]evidence.Value, typ rdf.Term) (float64, error) {
	f, ok := in[typ].AsFloat()
	if !ok {
		return 0, fmt.Errorf("missing or non-numeric %v", typ)
	}
	return f, nil
}

// UniversalPIScoreFn scores a protein identification from Hit Ratio, Mass
// Coverage and matched-peptide count, after the universal PMF quality
// metrics of Stead, Preece & Brown [20]: HR measures the spectrum's
// signal-to-noise, MC the fraction of sequence matched, and the peptide
// count stabilises the estimate for short sequences. The exact functional
// form used by the authors' Imprint deployment is not published; this
// combination preserves its documented behaviour — monotone in HR and MC,
// sub-linear in peptide count, on a 0–100 scale.
func UniversalPIScoreFn(in map[rdf.Term]evidence.Value) (float64, error) {
	hr, err := needFloat(in, ontology.HitRatio)
	if err != nil {
		return 0, err
	}
	mc, err := needFloat(in, ontology.Coverage)
	if err != nil {
		// The §5.1 view declares the evidence as q:coverage; accept the
		// canonical MassCoverage type as an alias.
		mc, err = needFloat(in, ontology.MassCoverage)
		if err != nil {
			return 0, err
		}
	}
	pep := 1.0
	if p, ok := in[ontology.PeptidesCount].AsFloat(); ok && p > 0 {
		pep = p
	}
	return 100 * hr * math.Sqrt(mc) * (1 - 1/(1+math.Log1p(pep))), nil
}

// NewUniversalPIScore returns the HR+MC score QA of the §5.1 view
// (servicetype q:UniversalPIScore2, tagname "HR MC").
func NewUniversalPIScore(tag rdf.Term) *Score {
	return &Score{
		ClassIRI:    ontology.UniversalPIScore2,
		Tag:         tag,
		Inputs:      []rdf.Term{ontology.HitRatio, ontology.Coverage, ontology.MassCoverage, ontology.PeptidesCount},
		Fn:          UniversalPIScoreFn,
		SkipMissing: false,
	}
}

// NewHRScore returns the Hit-Ratio-only score QA — the second QA of the
// §5.1 view, kept deliberately simpler so users can compare the two
// criteria's effects.
func NewHRScore(tag rdf.Term) *Score {
	return &Score{
		ClassIRI: ontology.HRScoreAssertion,
		Tag:      tag,
		Inputs:   []rdf.Term{ontology.HitRatio},
		Fn: func(in map[rdf.Term]evidence.Value) (float64, error) {
			hr, err := needFloat(in, ontology.HitRatio)
			if err != nil {
				return 0, err
			}
			return 100 * hr, nil
		},
	}
}

// StatClassifier is the three-way classification QA of §5.1: it computes a
// score per item, derives thresholds from the score distribution of the
// whole collection — (avg − stddev) and (avg + stddev), per the paper's
// footnote 19 — and assigns each item a class label from its
// classification model.
type StatClassifier struct {
	ClassIRI rdf.Term
	// Model is the ClassificationModel the labels belong to.
	Model rdf.Term
	// Low, Mid, High are the label individuals.
	Low, Mid, High rdf.Term
	// Inputs and Fn define the underlying score.
	Inputs []rdf.Term
	Fn     ScoreFunc
	// ScoreTag, when non-zero, additionally records the raw score.
	ScoreTag rdf.Term
}

// NewPIScoreClassifier returns the §5.1 PIScoreClassifier: low/mid/high
// over the HR+MC score distribution.
func NewPIScoreClassifier() *StatClassifier {
	return &StatClassifier{
		ClassIRI: ontology.PIScoreClassifier,
		Model:    ontology.PIScoreClassification,
		Low:      ontology.ClassLow,
		Mid:      ontology.ClassMid,
		High:     ontology.ClassHigh,
		Inputs:   []rdf.Term{ontology.HitRatio, ontology.Coverage, ontology.MassCoverage, ontology.PeptidesCount},
		Fn:       UniversalPIScoreFn,
	}
}

// Class implements ops.QualityAssertion.
func (c *StatClassifier) Class() rdf.Term { return c.ClassIRI }

// Requires implements ops.QualityAssertion.
func (c *StatClassifier) Requires() []rdf.Term { return c.Inputs }

// Provides implements ops.QualityAssertion.
func (c *StatClassifier) Provides() []rdf.Term {
	out := []rdf.Term{c.Model}
	if !c.ScoreTag.IsZero() {
		out = append(out, c.ScoreTag)
	}
	return out
}

// ItemWise implements ops.ItemWise: the classifier is collection-scoped —
// its avg±stddev thresholds derive from the whole run's score
// distribution (§5.1), so sharding it would change every label.
func (c *StatClassifier) ItemWise() bool { return false }

// Assert implements ops.QualityAssertion. Items whose score cannot be
// computed receive no class assignment.
func (c *StatClassifier) Assert(m *evidence.Map) error {
	if c.Fn == nil {
		return fmt.Errorf("qa: classifier %v has no score function", c.ClassIRI)
	}
	type scored struct {
		item evidence.Item
		s    float64
	}
	rows := make([]scored, 0, m.Len())
	in := make(map[rdf.Term]evidence.Value, len(c.Inputs))
	for i := 0; i < m.Len(); i++ {
		item := m.ItemAt(i)
		for _, typ := range c.Inputs {
			in[typ] = m.Get(item, typ)
		}
		s, err := c.Fn(in)
		if err != nil {
			continue
		}
		rows = append(rows, scored{item, s})
	}
	if len(rows) == 0 {
		return nil
	}
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = r.s
	}
	stats := evidence.ComputeStats(vals)
	lo, hi := stats.Mean-stats.StdDev, stats.Mean+stats.StdDev
	for _, r := range rows {
		var label rdf.Term
		switch {
		case r.s < lo:
			label = c.Low
		case r.s > hi:
			label = c.High
		default:
			label = c.Mid
		}
		m.SetClass(r.item, c.Model, label)
		if !c.ScoreTag.IsZero() {
			m.Set(r.item, c.ScoreTag, evidence.Float(r.s))
		}
	}
	return nil
}

// Thresholds exposes the classifier's cut points for a map — used by the
// threshold-exploration example and by actions that filter on
// "score > avg + stddev" (the Figure 7 experiment).
func (c *StatClassifier) Thresholds(m *evidence.Map) (lo, hi float64, err error) {
	vals := make([]float64, 0, m.Len())
	in := make(map[rdf.Term]evidence.Value, len(c.Inputs))
	for i := 0; i < m.Len(); i++ {
		item := m.ItemAt(i)
		for _, typ := range c.Inputs {
			in[typ] = m.Get(item, typ)
		}
		s, err := c.Fn(in)
		if err != nil {
			continue
		}
		vals = append(vals, s)
	}
	if len(vals) == 0 {
		return 0, 0, fmt.Errorf("qa: no scorable items")
	}
	stats := evidence.ComputeStats(vals)
	return stats.Mean - stats.StdDev, stats.Mean + stats.StdDev, nil
}

var _ ops.QualityAssertion = (*Score)(nil)
var _ ops.QualityAssertion = (*StatClassifier)(nil)

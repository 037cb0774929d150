package qa

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"qurator/internal/condition"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

func item(i int) evidence.Item {
	return rdf.IRI(fmt.Sprintf("urn:lsid:test.org:hit:%d", i))
}

// imprintMap builds a map with HR/MC/peptide evidence for n items; HR and
// MC increase with the index so higher items score higher.
func imprintMap(n int) *evidence.Map {
	m := evidence.NewMap()
	for i := 0; i < n; i++ {
		frac := float64(i+1) / float64(n)
		m.Set(item(i), ontology.HitRatio, evidence.Float(frac))
		m.Set(item(i), ontology.Coverage, evidence.Float(frac*0.8))
		m.Set(item(i), ontology.PeptidesCount, evidence.Int(int64(3+i)))
	}
	return m
}

func TestUniversalPIScoreMonotone(t *testing.T) {
	mk := func(hr, mc float64, pep int64) map[rdf.Term]evidence.Value {
		return map[rdf.Term]evidence.Value{
			ontology.HitRatio:      evidence.Float(hr),
			ontology.Coverage:      evidence.Float(mc),
			ontology.PeptidesCount: evidence.Int(pep),
		}
	}
	base, err := UniversalPIScoreFn(mk(0.5, 0.4, 5))
	if err != nil {
		t.Fatal(err)
	}
	higherHR, _ := UniversalPIScoreFn(mk(0.7, 0.4, 5))
	higherMC, _ := UniversalPIScoreFn(mk(0.5, 0.6, 5))
	higherPep, _ := UniversalPIScoreFn(mk(0.5, 0.4, 20))
	if higherHR <= base || higherMC <= base || higherPep <= base {
		t.Errorf("score must be monotone: base=%v hr=%v mc=%v pep=%v", base, higherHR, higherMC, higherPep)
	}
	if base <= 0 || base > 100 {
		t.Errorf("score out of range: %v", base)
	}
}

func TestUniversalPIScoreAliasesMassCoverage(t *testing.T) {
	// The §5.1 view declares q:coverage; the canonical type is
	// q:MassCoverage — both must work.
	in := map[rdf.Term]evidence.Value{
		ontology.HitRatio:     evidence.Float(0.5),
		ontology.MassCoverage: evidence.Float(0.4),
	}
	if _, err := UniversalPIScoreFn(in); err != nil {
		t.Errorf("MassCoverage alias rejected: %v", err)
	}
	delete(in, ontology.MassCoverage)
	if _, err := UniversalPIScoreFn(in); err == nil {
		t.Error("missing coverage should fail")
	}
}

func TestScoreAssertWritesTag(t *testing.T) {
	m := imprintMap(5)
	tag := ontology.Q("tag/HR_MC")
	s := NewUniversalPIScore(tag)
	// The §5.1 view requires peptidesCount too, but our Fn treats it as
	// optional; items missing required evidence fail unless SkipMissing.
	s.SkipMissing = true
	if err := s.Assert(m); err != nil {
		t.Fatalf("Assert: %v", err)
	}
	for _, it := range m.Items() {
		if !m.Has(it, tag) {
			t.Errorf("no score tag on %v", it)
		}
	}
	// Monotone in the index by construction.
	prev := -1.0
	for _, it := range m.Items() {
		v, _ := m.Get(it, tag).AsFloat()
		if v <= prev {
			t.Errorf("scores not increasing: %v after %v", v, prev)
		}
		prev = v
	}
	if s.Class() != ontology.UniversalPIScore2 {
		t.Error("wrong QA class")
	}
	if len(s.Requires()) == 0 || len(s.Provides()) != 1 {
		t.Error("Requires/Provides wrong")
	}
}

// Assert reuses one input map for every item, so its allocations do not
// grow with the number of items scored.
func TestScoreAssertAllocsIndependentOfItems(t *testing.T) {
	s := NewUniversalPIScore(ontology.Q("tag/HR_MC"))
	allocs := func(n int) float64 {
		m := imprintMap(n)
		return testing.AllocsPerRun(20, func() {
			if err := s.Assert(m.Clone()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(128); large > small+1 {
		t.Errorf("Assert allocs: %v at 128 items vs %v at 64, want at most one more", large, small)
	}
}

func TestScoreSkipMissingVsFail(t *testing.T) {
	m := evidence.NewMap(item(0))
	m.Set(item(0), ontology.HitRatio, evidence.Float(0.5))
	// No coverage evidence at all.
	tag := ontology.Q("tag/s")
	strict := NewUniversalPIScore(tag)
	if err := strict.Assert(m); err == nil {
		t.Error("strict score should fail on missing evidence")
	}
	lax := NewUniversalPIScore(tag)
	lax.SkipMissing = true
	if err := lax.Assert(m); err != nil {
		t.Errorf("SkipMissing should not fail: %v", err)
	}
	if m.Has(item(0), tag) {
		t.Error("skipped item should have no score")
	}
	empty := &Score{ClassIRI: ontology.Q("X"), Tag: tag}
	if err := empty.Assert(m); err == nil {
		t.Error("score without function should fail")
	}
}

func TestHRScore(t *testing.T) {
	m := evidence.NewMap(item(0))
	m.Set(item(0), ontology.HitRatio, evidence.Float(0.42))
	tag := ontology.Q("tag/HR")
	s := NewHRScore(tag)
	if err := s.Assert(m); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Get(item(0), tag).AsFloat()
	if math.Abs(v-42) > 1e-9 {
		t.Errorf("HR score = %v, want 42", v)
	}
}

func TestPIScoreClassifierThreeWay(t *testing.T) {
	// A distribution with clear outliers: many mid values, one low, one
	// high.
	m := evidence.NewMap()
	hrs := []float64{0.02, 0.5, 0.5, 0.5, 0.52, 0.48, 0.5, 0.99}
	for i, hr := range hrs {
		m.Set(item(i), ontology.HitRatio, evidence.Float(hr))
		m.Set(item(i), ontology.Coverage, evidence.Float(hr))
		m.Set(item(i), ontology.PeptidesCount, evidence.Int(10))
	}
	c := NewPIScoreClassifier()
	if err := c.Assert(m); err != nil {
		t.Fatal(err)
	}
	if got := m.Class(item(0), ontology.PIScoreClassification); got != ontology.ClassLow {
		t.Errorf("item 0 class = %v, want low", got)
	}
	if got := m.Class(item(7), ontology.PIScoreClassification); got != ontology.ClassHigh {
		t.Errorf("item 7 class = %v, want high", got)
	}
	for i := 1; i <= 6; i++ {
		if got := m.Class(item(i), ontology.PIScoreClassification); got != ontology.ClassMid {
			t.Errorf("item %d class = %v, want mid", i, got)
		}
	}
}

func TestClassifierThresholdsAvgStdDev(t *testing.T) {
	m := imprintMap(20)
	c := NewPIScoreClassifier()
	lo, hi, err := c.Thresholds(m)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi) {
		t.Fatalf("thresholds %v, %v", lo, hi)
	}
	// Recompute scores and verify lo/hi equal mean∓stddev.
	var scores []float64
	for _, it := range m.Items() {
		in := map[rdf.Term]evidence.Value{
			ontology.HitRatio:      m.Get(it, ontology.HitRatio),
			ontology.Coverage:      m.Get(it, ontology.Coverage),
			ontology.PeptidesCount: m.Get(it, ontology.PeptidesCount),
		}
		s, err := UniversalPIScoreFn(in)
		if err != nil {
			t.Fatal(err)
		}
		scores = append(scores, s)
	}
	st := evidence.ComputeStats(scores)
	if math.Abs(lo-(st.Mean-st.StdDev)) > 1e-9 || math.Abs(hi-(st.Mean+st.StdDev)) > 1e-9 {
		t.Errorf("thresholds (%v, %v) != mean∓stddev (%v, %v)", lo, hi, st.Mean-st.StdDev, st.Mean+st.StdDev)
	}
}

func TestClassifierCollectionScoped(t *testing.T) {
	// The same item classifies differently depending on the collection it
	// appears in — QAs are collection-scoped (paper §2).
	mkMap := func(others []float64) *evidence.Map {
		m := evidence.NewMap()
		m.Set(item(0), ontology.HitRatio, evidence.Float(0.5))
		m.Set(item(0), ontology.Coverage, evidence.Float(0.5))
		for i, hr := range others {
			m.Set(item(i+1), ontology.HitRatio, evidence.Float(hr))
			m.Set(item(i+1), ontology.Coverage, evidence.Float(hr))
		}
		return m
	}
	c := NewPIScoreClassifier()

	amongLow := mkMap([]float64{0.05, 0.06, 0.06, 0.05, 0.05, 0.06})
	if err := c.Assert(amongLow); err != nil {
		t.Fatal(err)
	}
	amongHigh := mkMap([]float64{0.95, 0.96, 0.96, 0.95, 0.95, 0.96})
	if err := c.Assert(amongHigh); err != nil {
		t.Fatal(err)
	}
	clsLow := amongLow.Class(item(0), ontology.PIScoreClassification)
	clsHigh := amongHigh.Class(item(0), ontology.PIScoreClassification)
	if clsLow != ontology.ClassHigh {
		t.Errorf("among weak hits, item 0 should be high, got %v", clsLow)
	}
	if clsHigh != ontology.ClassLow {
		t.Errorf("among strong hits, item 0 should be low, got %v", clsHigh)
	}
}

func TestClassifierSkipsUnscorable(t *testing.T) {
	m := imprintMap(5)
	m.AddItem(item(99)) // no evidence
	c := NewPIScoreClassifier()
	if err := c.Assert(m); err != nil {
		t.Fatal(err)
	}
	if !m.Class(item(99), ontology.PIScoreClassification).IsZero() {
		t.Error("unscorable item should have no class")
	}
	empty := evidence.NewMap(item(0))
	if err := c.Assert(empty); err != nil {
		t.Errorf("all-unscorable collection should not fail: %v", err)
	}
	if _, _, err := c.Thresholds(empty); err == nil {
		t.Error("Thresholds over unscorable collection should fail")
	}
}

// Property: every scorable item receives exactly one of the three labels,
// and label boundaries respect the score ordering (low scores never class
// above high scores).
func TestClassifierLabelOrderingProperty(t *testing.T) {
	rank := map[rdf.Term]int{ontology.ClassLow: 0, ontology.ClassMid: 1, ontology.ClassHigh: 2}
	f := func(seed int64) bool {
		n := int(seed%40) + 2
		if n < 0 {
			n = -n + 2
		}
		m := evidence.NewMap()
		for i := 0; i < n; i++ {
			hr := float64((seed>>(i%8))&0xff%100) / 100
			m.Set(item(i), ontology.HitRatio, evidence.Float(hr))
			m.Set(item(i), ontology.Coverage, evidence.Float(hr))
		}
		c := NewPIScoreClassifier()
		if err := c.Assert(m); err != nil {
			return false
		}
		type row struct {
			score float64
			label rdf.Term
		}
		var rows []row
		for _, it := range m.Items() {
			in := map[rdf.Term]evidence.Value{
				ontology.HitRatio: m.Get(it, ontology.HitRatio),
				ontology.Coverage: m.Get(it, ontology.Coverage),
			}
			s, err := UniversalPIScoreFn(in)
			if err != nil {
				return false
			}
			label := m.Class(it, ontology.PIScoreClassification)
			if _, ok := rank[label]; !ok {
				return false
			}
			rows = append(rows, row{s, label})
		}
		for _, a := range rows {
			for _, b := range rows {
				if a.score < b.score && rank[a.label] > rank[b.label] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecisionTree(t *testing.T) {
	vars := condition.Bindings{
		"hr": ontology.HitRatio,
		"mc": ontology.Coverage,
	}
	tree := &DecisionTree{
		ClassIRI: ontology.Q("MyTreeQA"),
		Model:    ontology.PIScoreClassification,
		Vars:     vars,
		Root: Branch(condition.MustParse("hr > 0.5"),
			Branch(condition.MustParse("mc > 0.5"),
				Leaf(ontology.ClassHigh),
				Leaf(ontology.ClassMid)),
			Leaf(ontology.ClassLow)),
	}
	m := evidence.NewMap()
	set := func(i int, hr, mc float64) {
		m.Set(item(i), ontology.HitRatio, evidence.Float(hr))
		m.Set(item(i), ontology.Coverage, evidence.Float(mc))
	}
	set(0, 0.9, 0.9)
	set(1, 0.9, 0.2)
	set(2, 0.2, 0.9)
	if err := tree.Assert(m); err != nil {
		t.Fatal(err)
	}
	want := []rdf.Term{ontology.ClassHigh, ontology.ClassMid, ontology.ClassLow}
	for i, w := range want {
		if got := m.Class(item(i), ontology.PIScoreClassification); got != w {
			t.Errorf("item %d: class %v, want %v", i, got, w)
		}
	}
}

func TestDecisionTreeValidation(t *testing.T) {
	bad := []*DecisionTree{
		{ClassIRI: ontology.Q("T1")},                    // no root
		{ClassIRI: ontology.Q("T2"), Root: &TreeNode{}}, // leaf without label
		{ClassIRI: ontology.Q("T3"), Root: Branch(condition.MustParse("x > 1"), Leaf(ontology.ClassLow), nil)}, // missing branch
	}
	m := evidence.NewMap(item(0))
	for i, d := range bad {
		if err := d.Assert(m); err == nil {
			t.Errorf("tree %d should fail validation", i)
		}
	}
}

func TestDecisionTreeErrorPolicy(t *testing.T) {
	tree := &DecisionTree{
		ClassIRI: ontology.Q("T"),
		Model:    ontology.PIScoreClassification,
		Vars:     condition.Bindings{"hr": ontology.HitRatio},
		Root: Branch(condition.MustParse("hr > 0.5"),
			Leaf(ontology.ClassHigh), Leaf(ontology.ClassLow)),
	}
	m := evidence.NewMap(item(0)) // no evidence → condition errors
	if err := tree.Assert(m); err == nil {
		t.Error("default policy should propagate the error")
	}
	tree.ErrorTakesFalse = true
	if err := tree.Assert(m); err != nil {
		t.Fatalf("ErrorTakesFalse should not fail: %v", err)
	}
	if got := m.Class(item(0), ontology.PIScoreClassification); got != ontology.ClassLow {
		t.Errorf("error should take the false branch, got %v", got)
	}
}

func TestCredibilityQA(t *testing.T) {
	m := evidence.NewMap()
	set := func(i int, code string, impact float64) {
		m.Set(item(i), ontology.EvidenceCode, evidence.String_(code))
		if impact >= 0 {
			m.Set(item(i), ontology.JournalImpactFactor, evidence.Float(impact))
		}
	}
	set(0, "TAS", 9)  // top code, strong journal
	set(1, "IEA", -1) // uncurated, no journal
	set(2, "ISS", 2)
	set(3, "XXX", 5) // unknown code → treated as IEA
	tag := ontology.Q("tag/credibility")
	c := NewCredibilityQA(tag)
	if err := c.Assert(m); err != nil {
		t.Fatal(err)
	}
	s0, _ := m.Get(item(0), tag).AsFloat()
	s1, _ := m.Get(item(1), tag).AsFloat()
	s3, _ := m.Get(item(3), tag).AsFloat()
	if s0 <= s1 {
		t.Errorf("TAS (%v) must outscore IEA (%v)", s0, s1)
	}
	if s3 > s1+10 {
		t.Errorf("unknown code (%v) should score like IEA (%v)", s3, s1)
	}
	if m.Class(item(0), ontology.CredibilityClass).IsZero() {
		t.Error("credibility class missing")
	}
}

func TestCredibilityScoreImpactClamped(t *testing.T) {
	mk := func(impact float64) map[rdf.Term]evidence.Value {
		return map[rdf.Term]evidence.Value{
			ontology.EvidenceCode:        evidence.String_("TAS"),
			ontology.JournalImpactFactor: evidence.Float(impact),
		}
	}
	at10, _ := CredibilityScoreFn(mk(10))
	at50, _ := CredibilityScoreFn(mk(50))
	if at10 != at50 {
		t.Errorf("impact factor must clamp at 10: %v vs %v", at10, at50)
	}
	neg, _ := CredibilityScoreFn(mk(-5))
	zero, _ := CredibilityScoreFn(mk(0))
	if neg != zero {
		t.Errorf("negative impact must clamp at 0: %v vs %v", neg, zero)
	}
}

func BenchmarkUniversalPIScore(b *testing.B) {
	m := imprintMap(100)
	s := NewUniversalPIScore(ontology.Q("tag/s"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Assert(m.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPIScoreClassifier(b *testing.B) {
	m := imprintMap(100)
	c := NewPIScoreClassifier()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Assert(m.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

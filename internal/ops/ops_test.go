package ops

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"qurator/internal/annotstore"
	"qurator/internal/condition"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

func item(i int) evidence.Item {
	return rdf.IRI(fmt.Sprintf("urn:lsid:test.org:item:%d", i))
}

// scoredMap builds a map of n items with HR evidence i/n and a score tag
// equal to i.
func scoredMap(n int) *evidence.Map {
	m := evidence.NewMap()
	for i := 0; i < n; i++ {
		m.Set(item(i), ontology.HitRatio, evidence.Float(float64(i)/float64(n)))
		m.Set(item(i), ontology.Q("tag/score"), evidence.Float(float64(i)))
	}
	return m
}

func TestFilterKeepsMatchingItems(t *testing.T) {
	m := scoredMap(10)
	f := &Filter{
		Cond: condition.MustParse("score >= 5"),
		Vars: condition.Bindings{"score": ontology.Q("tag/score")},
	}
	out, err := f.Apply(m)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if out.Len() != 5 {
		t.Fatalf("kept %d items, want 5", out.Len())
	}
	// Input unchanged; output preserves order and evidence.
	if m.Len() != 10 {
		t.Error("filter mutated its input")
	}
	if !out.Get(item(5), ontology.HitRatio).Equal(evidence.Float(0.5)) {
		t.Error("filter dropped evidence")
	}
	if !reflect.DeepEqual(out.Items()[0], item(5)) {
		t.Errorf("order not preserved: %v", out.Items())
	}
}

func TestFilterErrorPolicies(t *testing.T) {
	m := scoredMap(3)
	m.AddItem(item(99)) // no evidence at all
	cond := condition.MustParse("score >= 0")
	vars := condition.Bindings{"score": ontology.Q("tag/score")}

	rejects := &Filter{Cond: cond, Vars: vars, OnError: ErrorRejects}
	out, err := rejects.Apply(m)
	if err != nil {
		t.Fatalf("ErrorRejects should not fail: %v", err)
	}
	if out.Len() != 3 {
		t.Errorf("ErrorRejects kept %d, want 3 (item without evidence rejected)", out.Len())
	}

	fails := &Filter{Cond: cond, Vars: vars, OnError: ErrorFails}
	if _, err := fails.Apply(m); err == nil {
		t.Error("ErrorFails should surface the evaluation error")
	}

	if _, err := (&Filter{}).Apply(m); err == nil {
		t.Error("filter without condition should fail")
	}
}

func TestSplitterGroupsAndDefault(t *testing.T) {
	m := scoredMap(10)
	s := &Splitter{
		Groups: []SplitGroup{
			{Name: "high", Cond: condition.MustParse("score >= 7")},
			{Name: "even", Cond: condition.MustParse("score in 0, 2, 4, 6, 8")},
		},
		Vars: condition.Bindings{"score": ontology.Q("tag/score")},
	}
	out, err := s.Apply(m)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("groups = %v, want high/even/default", keys(out))
	}
	if out["high"].Len() != 3 {
		t.Errorf("high has %d items, want 3 (7,8,9)", out["high"].Len())
	}
	if out["even"].Len() != 5 {
		t.Errorf("even has %d items, want 5", out["even"].Len())
	}
	// Groups are not necessarily disjoint: 8 is in both.
	if !out["high"].HasItem(item(8)) || !out["even"].HasItem(item(8)) {
		t.Error("item 8 should be in both groups")
	}
	// Default gets items matching nothing: odd numbers < 7 → 1, 3, 5.
	if out["default"].Len() != 3 {
		t.Errorf("default has %d items, want 3: %v", out["default"].Len(), out["default"].Items())
	}
	// Union of all groups covers all items.
	covered := map[evidence.Item]bool{}
	for _, g := range out {
		for _, it := range g.Items() {
			covered[it] = true
		}
	}
	if len(covered) != 10 {
		t.Errorf("union covers %d items, want 10", len(covered))
	}
}

func TestSplitterCustomDefaultNameAndErrors(t *testing.T) {
	m := scoredMap(2)
	s := &Splitter{
		Groups:      []SplitGroup{{Name: "none", Cond: condition.MustParse("score > 100")}},
		DefaultName: "rest",
		Vars:        condition.Bindings{"score": ontology.Q("tag/score")},
	}
	out, err := s.Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if out["rest"].Len() != 2 || out["none"].Len() != 0 {
		t.Errorf("groups: rest=%d none=%d", out["rest"].Len(), out["none"].Len())
	}
	if _, err := (&Splitter{}).Apply(m); err == nil {
		t.Error("splitter without groups should fail")
	}
}

func TestTopK(t *testing.T) {
	m := scoredMap(10)
	top, err := (&TopK{Key: ontology.Q("tag/score"), K: 3}).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []evidence.Item{item(9), item(8), item(7)}
	if !reflect.DeepEqual(top.Items(), want) {
		t.Errorf("TopK items = %v, want %v", top.Items(), want)
	}
	// k larger than the collection keeps everything scored.
	all, err := (&TopK{Key: ontology.Q("tag/score"), K: 100}).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 10 {
		t.Errorf("TopK(100) kept %d", all.Len())
	}
	if _, err := (&TopK{Key: ontology.Q("tag/score"), K: -1}).Apply(m); err == nil {
		t.Error("negative k should fail")
	}
	// Unscored items are dropped.
	m.AddItem(item(99))
	top, err = (&TopK{Key: ontology.Q("tag/score"), K: 11}).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if top.HasItem(item(99)) {
		t.Error("unscored item should not survive TopK")
	}
}

func TestTopKStableOnTies(t *testing.T) {
	m := evidence.NewMap()
	for i := 0; i < 5; i++ {
		m.Set(item(i), ontology.Q("tag/score"), evidence.Float(1))
	}
	top, err := (&TopK{Key: ontology.Q("tag/score"), K: 3}).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []evidence.Item{item(0), item(1), item(2)}
	if !reflect.DeepEqual(top.Items(), want) {
		t.Errorf("ties should preserve input order: %v", top.Items())
	}
}

func TestDataEnrichment(t *testing.T) {
	cache := annotstore.New("cache", false)
	persistent := annotstore.New("default", true)
	for i := 0; i < 3; i++ {
		cache.Put(annotstore.Annotation{Item: item(i), Type: ontology.HitRatio, Value: evidence.Float(float64(i))})
		persistent.Put(annotstore.Annotation{Item: item(i), Type: ontology.EvidenceCode, Value: evidence.String_("TAS")})
	}
	de := &DataEnrichment{Sources: []EvidenceSource{
		{Type: ontology.HitRatio, Repository: cache},
		{Type: ontology.EvidenceCode, Repository: persistent},
	}}
	m := evidence.NewMap(item(0), item(1), item(2))
	n, err := de.Enrich(m)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("Enrich added %d, want 6", n)
	}
	// Missing repository is an error.
	bad := &DataEnrichment{Sources: []EvidenceSource{{Type: ontology.HitRatio}}}
	if _, err := bad.Enrich(m); err == nil {
		t.Error("nil repository should fail")
	}
}

// Property (Figure 4 operator law): filtering is idempotent and its output
// is always a subset of its input.
func TestFilterIdempotentProperty(t *testing.T) {
	f := func(seed uint8, cut uint8) bool {
		n := int(seed%30) + 1
		threshold := float64(cut % 30)
		m := evidence.NewMap()
		for i := 0; i < n; i++ {
			m.Set(item(i), ontology.Q("tag/score"), evidence.Float(float64(i)))
		}
		flt := &Filter{
			Cond: condition.MustParse(fmt.Sprintf("score >= %g", threshold)),
			Vars: condition.Bindings{"score": ontology.Q("tag/score")},
		}
		once, err := flt.Apply(m)
		if err != nil {
			return false
		}
		twice, err := flt.Apply(once)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(once.Items(), twice.Items()) {
			return false
		}
		for _, it := range once.Items() {
			if !m.HasItem(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the splitter's groups plus default always cover the input set.
func TestSplitterCoverageProperty(t *testing.T) {
	f := func(seed uint8, cut uint8) bool {
		n := int(seed%30) + 1
		m := evidence.NewMap()
		for i := 0; i < n; i++ {
			m.Set(item(i), ontology.Q("tag/score"), evidence.Float(float64(i)))
		}
		s := &Splitter{
			Groups: []SplitGroup{
				{Name: "a", Cond: condition.MustParse(fmt.Sprintf("score >= %d", cut%30))},
				{Name: "b", Cond: condition.MustParse("score < 5")},
			},
			Vars: condition.Bindings{"score": ontology.Q("tag/score")},
		}
		out, err := s.Apply(m)
		if err != nil {
			return false
		}
		covered := map[evidence.Item]bool{}
		for _, g := range out {
			for _, it := range g.Items() {
				if !m.HasItem(it) {
					return false
				}
				covered[it] = true
			}
		}
		return len(covered) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func keys(m SplitResult) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func BenchmarkFilter1000(b *testing.B) {
	m := scoredMap(1000)
	f := &Filter{
		Cond: condition.MustParse("score >= 500"),
		Vars: condition.Bindings{"score": ontology.Q("tag/score")},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Apply(m); err != nil {
			b.Fatal(err)
		}
	}
}

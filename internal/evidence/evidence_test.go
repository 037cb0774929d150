package evidence

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"qurator/internal/rdf"
)

func item(i int) Item { return rdf.IRI(fmt.Sprintf("urn:lsid:test.org:item:%d", i)) }

var (
	hrKey = rdf.IRI("http://qurator.org/iq#HitRatio")
	mcKey = rdf.IRI("http://qurator.org/iq#MassCoverage")
	model = rdf.IRI("http://qurator.org/iq#PIScoreClassification")
	high  = rdf.IRI("http://qurator.org/iq#high")
	low   = rdf.IRI("http://qurator.org/iq#low")
)

func TestValueKindsAndConversions(t *testing.T) {
	cases := []struct {
		v    Value
		kind ValueKind
		str  string
	}{
		{Null, KindNull, ""},
		{Float(0.75), KindFloat, "0.75"},
		{Int(42), KindInt, "42"},
		{String_("IEA"), KindString, "IEA"},
		{Bool(true), KindBool, "true"},
		{TermValue(high), KindTerm, high.Value()},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.AsString() != c.str {
			t.Errorf("%v: AsString = %q, want %q", c.v, c.v.AsString(), c.str)
		}
	}
	if f, ok := Int(7).AsFloat(); !ok || f != 7 {
		t.Error("Int should convert to float")
	}
	if f, ok := String_("2.5").AsFloat(); !ok || f != 2.5 {
		t.Error("numeric string should convert to float")
	}
	if _, ok := String_("abc").AsFloat(); ok {
		t.Error("non-numeric string should not convert to float")
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("AsBool failed")
	}
	if tm, ok := TermValue(high).AsTerm(); !ok || tm != high {
		t.Error("AsTerm failed")
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	if !Float(3).Equal(Int(3)) {
		t.Error("Float(3) should equal Int(3)")
	}
	if Float(3.5).Equal(Int(3)) {
		t.Error("Float(3.5) should not equal Int(3)")
	}
	if !String_("x").Equal(String_("x")) {
		t.Error("equal strings should be Equal")
	}
	if String_("x").Equal(TermValue(rdf.Literal("x"))) {
		t.Error("string and term values should not be Equal")
	}
}

func TestValueTermRoundTrip(t *testing.T) {
	vals := []Value{
		Float(0.123), Int(-5), String_("evidence code IEA"), Bool(false), TermValue(high),
	}
	for _, v := range vals {
		back := FromTerm(v.ToTerm())
		if !back.Equal(v) || back.Kind() != v.Kind() {
			t.Errorf("round trip %v -> %v -> %v", v, v.ToTerm(), back)
		}
	}
	if !FromTerm(rdf.Term{}).IsNull() {
		t.Error("zero Term should decode to Null")
	}
	if Null.ToTerm() != (rdf.Term{}) {
		t.Error("Null should encode to zero Term")
	}
}

// Property: ToTerm/FromTerm is the identity on all value kinds for random
// payloads.
func TestValueTermRoundTripProperty(t *testing.T) {
	f := func(f64 float64, i64 int64, s string, b bool) bool {
		if math.IsNaN(f64) || math.IsInf(f64, 0) {
			return true
		}
		for _, v := range []Value{Float(f64), Int(i64), String_(s), Bool(b)} {
			if !FromTerm(v.ToTerm()).Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapItemOrderAndDedup(t *testing.T) {
	m := NewMap(item(3), item(1), item(2), item(1))
	want := []Item{item(3), item(1), item(2)}
	if !reflect.DeepEqual(m.Items(), want) {
		t.Fatalf("Items = %v, want %v", m.Items(), want)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.AddItem(item(1)) {
		t.Error("duplicate AddItem should report false")
	}
	if !m.AddItem(item(9)) {
		t.Error("new AddItem should report true")
	}
	if !m.HasItem(item(9)) || m.HasItem(item(100)) {
		t.Error("HasItem wrong")
	}
}

func TestMapSetGet(t *testing.T) {
	m := NewMap(item(1))
	m.Set(item(1), hrKey, Float(0.8))
	m.Set(item(2), hrKey, Float(0.3)) // implicit item add
	if v := m.Get(item(1), hrKey); !v.Equal(Float(0.8)) {
		t.Errorf("Get = %v", v)
	}
	if !m.Has(item(1), hrKey) || m.Has(item(1), mcKey) {
		t.Error("Has wrong")
	}
	if m.Len() != 2 {
		t.Errorf("implicit add: Len = %d", m.Len())
	}
	// Setting Null removes.
	m.Set(item(1), hrKey, Null)
	if m.Has(item(1), hrKey) {
		t.Error("Set Null should remove entry")
	}
	if !m.Get(item(100), hrKey).IsNull() {
		t.Error("absent item should read Null")
	}
}

func TestMapKeysSorted(t *testing.T) {
	m := NewMap(item(1))
	m.Set(item(1), mcKey, Float(1))
	m.Set(item(1), hrKey, Float(2))
	keys := m.Keys()
	if len(keys) != 2 || rdf.CompareTerms(keys[0], keys[1]) >= 0 {
		t.Errorf("Keys = %v, want sorted pair", keys)
	}
}

func TestMapClassAssignment(t *testing.T) {
	m := NewMap(item(1), item(2))
	m.SetClass(item(1), model, high)
	m.SetClass(item(2), model, low)
	if m.Class(item(1), model) != high || m.Class(item(2), model) != low {
		t.Error("class assignment lost")
	}
	if !m.Class(item(3), model).IsZero() {
		t.Error("unassigned class should be zero Term")
	}
}

func TestMapCloneIsDeep(t *testing.T) {
	m := NewMap(item(1))
	m.Set(item(1), hrKey, Float(0.5))
	c := m.Clone()
	c.Set(item(1), hrKey, Float(0.9))
	c.AddItem(item(2))
	if v := m.Get(item(1), hrKey); !v.Equal(Float(0.5)) {
		t.Error("clone mutation leaked into original")
	}
	if m.Len() != 1 {
		t.Error("clone AddItem leaked into original")
	}
}

func TestMapProjectAndFilter(t *testing.T) {
	m := NewMap(item(1), item(2), item(3))
	for i := 1; i <= 3; i++ {
		m.Set(item(i), hrKey, Float(float64(i)/10))
	}
	p := m.Project([]Item{item(3), item(1)})
	if !reflect.DeepEqual(p.Items(), []Item{item(3), item(1)}) {
		t.Errorf("Project items = %v", p.Items())
	}
	if !p.Get(item(3), hrKey).Equal(Float(0.3)) {
		t.Error("Project lost evidence")
	}
	f := m.Filter(func(it Item) bool {
		v, _ := m.Get(it, hrKey).AsFloat()
		return v >= 0.2
	})
	if !reflect.DeepEqual(f.Items(), []Item{item(2), item(3)}) {
		t.Errorf("Filter items = %v", f.Items())
	}
}

func TestMapMergeConflictResolution(t *testing.T) {
	a := NewMap(item(1))
	a.Set(item(1), hrKey, Float(0.1))
	b := NewMap(item(1), item(2))
	b.Set(item(1), hrKey, Float(0.9)) // conflicting
	b.Set(item(2), mcKey, Float(0.4))
	a.Merge(b)
	if !a.Get(item(1), hrKey).Equal(Float(0.9)) {
		t.Error("Merge should let other win on conflicts")
	}
	if !reflect.DeepEqual(a.Items(), []Item{item(1), item(2)}) {
		t.Errorf("Merge items = %v", a.Items())
	}
}

func TestFloatColumnSkipsNonNumeric(t *testing.T) {
	m := NewMap(item(1), item(2), item(3))
	m.Set(item(1), hrKey, Float(0.5))
	m.Set(item(2), hrKey, String_("not numeric at all x"))
	m.Set(item(3), hrKey, Int(1))
	items, vals := m.FloatColumn(hrKey)
	if len(items) != 2 || vals[0] != 0.5 || vals[1] != 1 {
		t.Errorf("FloatColumn = %v, %v", items, vals)
	}
}

func TestComputeStats(t *testing.T) {
	s := ComputeStats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("mean = %v, n = %d", s.Mean, s.N)
	}
	if math.Abs(s.StdDev-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	empty := ComputeStats(nil)
	if empty.N != 0 || empty.Mean != 0 || empty.StdDev != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestColumnStats(t *testing.T) {
	m := NewMap()
	for i := 1; i <= 4; i++ {
		m.Set(item(i), hrKey, Float(float64(i)))
	}
	s := m.ColumnStats(hrKey)
	if s.N != 4 || s.Mean != 2.5 {
		t.Errorf("ColumnStats = %+v", s)
	}
}

// Property: Project(Items()) is an identity (same items, same evidence).
func TestProjectIdentityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		m := NewMap()
		n := int(seed%20) + 1
		for i := 0; i < n; i++ {
			m.Set(item(i), hrKey, Float(float64(i)))
			if i%2 == 0 {
				m.SetClass(item(i), model, high)
			}
		}
		p := m.Project(m.Items())
		if !reflect.DeepEqual(p.Items(), m.Items()) {
			return false
		}
		for _, it := range m.Items() {
			if !reflect.DeepEqual(p.Row(it), m.Row(it)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapString(t *testing.T) {
	m := NewMap(item(1))
	m.Set(item(1), hrKey, Float(0.5))
	s := m.String()
	if s == "" || !reflect.DeepEqual(m.Items(), []Item{item(1)}) {
		t.Error("String should render non-empty table")
	}
}

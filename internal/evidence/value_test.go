package evidence

import (
	"math"
	"testing"
	"unsafe"

	"qurator/internal/rdf"
)

// TestValueSize pins the compact layout: a kind byte, one word, one string
// and one pointer. Every annotation-map cell is a Value.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d bytes, want <= 40", n)
	}
}

// TestValueWordSemantics pins what packing floats, ints and bools into
// one word, and term metadata behind a pointer, could break: numeric
// equality, the bitwise identity Map.write relies on, lexical forms and
// the term round trips.
func TestValueWordSemantics(t *testing.T) {
	negZero, nan := Float(math.Copysign(0, -1)), Float(math.NaN())
	plain := rdf.Literal("x")
	typedString := rdf.TypedLiteral("x", rdf.XSDString)
	pairs := []struct {
		name             string
		a, b             Value
		equal, identical bool
	}{
		{"+0 vs -0", Float(0), negZero, true, false},
		{"NaN vs NaN", nan, nan, false, true},
		{"Int(1) vs Float(1)", Int(1), Float(1), true, false},
		{"Int(1) vs Int(1)", Int(1), Int(1), true, true},
		{"Int(1) vs Int(2)", Int(1), Int(2), false, false},
		{"Bool(true) vs Bool(false)", Bool(true), Bool(false), false, false},
		{"Bool(false) vs Int(0)", Bool(false), Int(0), false, false},
		{"String_ vs String_", String_("a"), String_("a"), true, true},
		{"String_ vs plain literal", String_("x"), TermValue(plain), false, false},
		{"same IRI", TermValue(high), TermValue(high), true, true},
		{"IRI vs blank", TermValue(rdf.IRI("b")), TermValue(rdf.Blank("b")), false, false},
		{"plain vs typed xsd:string", TermValue(plain), TermValue(typedString), false, false},
		{"typed xsd:string twice", TermValue(typedString), TermValue(rdf.TypedLiteral("x", rdf.XSDString)), true, true},
		{"lang en vs fr", TermValue(rdf.LangLiteral("x", "en")), TermValue(rdf.LangLiteral("x", "fr")), false, false},
		{"Null vs Null", Null, Null, true, true},
	}
	for _, p := range pairs {
		if got := p.a.Equal(p.b); got != p.equal {
			t.Errorf("%s: Equal = %v, want %v", p.name, got, p.equal)
		}
		if got := identical(p.a, p.b); got != p.identical {
			t.Errorf("%s: identical = %v, want %v", p.name, got, p.identical)
		}
	}

	lexical := []struct {
		v    Value
		want string
	}{
		{Null, ""},
		{Float(0.25), "0.25"},
		{negZero, "-0"},
		{Int(-3), "-3"},
		{String_("s"), "s"},
		{Bool(false), "false"},
		{Bool(true), "true"},
		{TermValue(high), high.Value()},
		{TermValue(rdf.LangLiteral("chat", "fr")), "chat"},
	}
	for _, c := range lexical {
		if got := c.v.AsString(); got != c.want {
			t.Errorf("%v.AsString() = %q, want %q", c.v, got, c.want)
		}
	}

	terms := []struct {
		t    rdf.Term
		back Value // FromTerm(TermValue(t).ToTerm())
	}{
		{high, TermValue(high)},
		{rdf.Blank("b1"), TermValue(rdf.Blank("b1"))},
		{plain, String_("x")},
		{typedString, String_("x")},
		{rdf.LangLiteral("chat", "fr"), String_("chat")},
	}
	for _, c := range terms {
		v := TermValue(c.t)
		if got, ok := v.AsTerm(); !ok || got != c.t {
			t.Errorf("TermValue(%v).AsTerm() = %v, %v", c.t, got, ok)
		}
		if got := v.ToTerm(); got != c.t {
			t.Errorf("TermValue(%v).ToTerm() = %v", c.t, got)
		}
		if got := v.String(); got != c.t.String() {
			t.Errorf("TermValue(%v).String() = %q", c.t, got)
		}
		if got := FromTerm(v.ToTerm()); !identical(got, c.back) {
			t.Errorf("FromTerm(TermValue(%v).ToTerm()) = %v, want %v", c.t, got, c.back)
		}
	}
	for _, v := range []Value{Float(0.25), negZero, Int(math.MinInt64), Bool(true), Bool(false), String_("s")} {
		if got := FromTerm(v.ToTerm()); !identical(got, v) {
			t.Errorf("FromTerm(%v.ToTerm()) = %v", v, got)
		}
	}
}

// Package evidence implements annotation maps — the values that flow
// between Qurator's quality operators (paper §4.1).
//
// Given a data set D and a set E of evidence types, an annotation map
// associates an evidence value v (possibly null) for each evidence type
// e ∈ E to each data item d ∈ D:
//
//	Amap : d → {(e, v)}
//
// Quality assertions augment the map with class assignments of the form
// {d → (t, cl)} where t is a classification model and cl one of its
// members, and with named score tags. Items are identified by RDF terms
// (typically LSID-wrapped URIs, see internal/lsid).
package evidence

import (
	"fmt"
	"math"
	"strconv"

	"qurator/internal/rdf"
)

// ValueKind discriminates evidence value types.
type ValueKind uint8

const (
	// KindNull is the absent value (the paper's "possibly null" v).
	KindNull ValueKind = iota
	// KindFloat is a floating-point evidence value (scores, ratios).
	KindFloat
	// KindInt is an integer evidence value (counts).
	KindInt
	// KindString is a string evidence value (codes, names).
	KindString
	// KindBool is a boolean evidence value.
	KindBool
	// KindTerm is an RDF term value — used for class labels, which are
	// individuals of a ClassificationModel in the IQ ontology.
	KindTerm
)

func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindTerm:
		return "term"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is a typed evidence value. The zero Value is the null value.
//
// A Value is 40 bytes: a kind byte (and, for a term, its rdf.TermKind),
// one word holding float bits, an int or a bool, one string holding a
// string value or a term's lexical form, and a pointer to a literal
// term's datatype or language tag. That pointer is nil for
// IRIs, blank nodes and plain literals, so a class label costs no lookup.
type Value struct {
	kind  ValueKind
	tkind rdf.TermKind
	w     uint64
	s     string
	meta  *termMeta
}

// termMeta is the datatype IRI or language tag of a literal term that is
// not plain. At most one of the two is set.
type termMeta struct{ datatype, lang string }

// Null is the absent evidence value.
var Null = Value{}

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, w: math.Float64bits(f)} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, w: uint64(i)} }

// String_ returns a string value. (Named with a trailing underscore to
// leave the String method free for fmt.Stringer.)
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, w: 1}
	}
	return Value{kind: KindBool}
}

// TermValue returns an RDF-term value (e.g. a classification label IRI).
func TermValue(t rdf.Term) Value {
	v := Value{kind: KindTerm, tkind: t.Kind(), s: t.Value()}
	if t.IsLiteral() && t != rdf.Literal(t.Value()) {
		if lang := t.Lang(); lang != "" {
			v.meta = &termMeta{lang: lang}
		} else {
			v.meta = &termMeta{datatype: t.Datatype()}
		}
	}
	return v
}

func (v Value) float() float64 { return math.Float64frombits(v.w) }

// term rebuilds the RDF term of a KindTerm value.
func (v Value) term() rdf.Term {
	switch v.tkind {
	case rdf.KindIRI:
		return rdf.IRI(v.s)
	case rdf.KindBlank:
		return rdf.Blank(v.s)
	case rdf.KindLiteral:
		switch {
		case v.meta == nil:
			return rdf.Literal(v.s)
		case v.meta.lang != "":
			return rdf.LangLiteral(v.s, v.meta.lang)
		default:
			return rdf.TypedLiteral(v.s, v.meta.datatype)
		}
	default:
		return rdf.Term{}
	}
}

// Kind reports the value's kind.
func (v Value) Kind() ValueKind { return v.kind }

// IsNull reports whether the value is absent.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.float(), true
	case KindInt:
		return float64(int64(v.w)), true
	case KindString:
		f, err := strconv.ParseFloat(v.s, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// AsString returns the lexical form of the value.
func (v Value) AsString() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindInt:
		return strconv.FormatInt(int64(v.w), 10)
	case KindString, KindTerm:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.w != 0)
	default:
		return ""
	}
}

// AsBool returns the boolean value.
func (v Value) AsBool() (bool, bool) {
	if v.kind == KindBool {
		return v.w != 0, true
	}
	return false, false
}

// AsTerm returns the RDF-term value.
func (v Value) AsTerm() (rdf.Term, bool) {
	if v.kind == KindTerm {
		return v.term(), true
	}
	return rdf.Term{}, false
}

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.kind == KindNull {
		return "<null>"
	}
	if v.kind == KindTerm {
		return v.term().String()
	}
	return v.AsString()
}

// Equal reports whether two values are equal, comparing numerics across
// int/float kinds. Floats compare as numbers: +0 equals −0 and a NaN
// equals nothing.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		if v.kind == KindFloat {
			return v.float() == o.float()
		}
		return identical(v, o)
	}
	vf, vok := v.AsFloat()
	of, ook := o.AsFloat()
	if vok && ook {
		return vf == of
	}
	return false
}

// identical reports whether two values are the same bit for bit. Floats
// compare by their bits, so −0 and +0 differ (WriteCanonical tells them
// apart) and a NaN equals itself.
func identical(a, b Value) bool {
	return a.kind == b.kind && a.tkind == b.tkind && a.w == b.w && a.s == b.s &&
		(a.meta == b.meta || a.meta != nil && b.meta != nil && *a.meta == *b.meta)
}

// ToTerm encodes the value as an RDF term for storage in an annotation
// repository. Null values encode as a zero Term.
func (v Value) ToTerm() rdf.Term {
	switch v.kind {
	case KindNull:
		return rdf.Term{}
	case KindFloat:
		return rdf.Double(v.float())
	case KindInt:
		return rdf.Integer(int64(v.w))
	case KindString:
		return rdf.Literal(v.s)
	case KindBool:
		return rdf.Boolean(v.w != 0)
	case KindTerm:
		return v.term()
	default:
		return rdf.Term{}
	}
}

// FromTerm decodes an RDF term into a Value, reversing ToTerm: typed
// numeric/boolean literals become their native kinds, other literals
// become strings, and IRIs/blank nodes become term values.
func FromTerm(t rdf.Term) Value {
	if t.IsZero() {
		return Null
	}
	if !t.IsLiteral() {
		return TermValue(t)
	}
	switch t.Datatype() {
	case rdf.XSDDouble:
		if f, ok := t.Float(); ok {
			return Float(f)
		}
	case rdf.XSDInteger:
		if i, ok := t.Int(); ok {
			return Int(i)
		}
	case rdf.XSDBoolean:
		if b, ok := t.Bool(); ok {
			return Bool(b)
		}
	}
	return String_(t.Value())
}

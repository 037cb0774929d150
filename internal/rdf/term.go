// Package rdf implements the RDF data model used throughout Qurator:
// terms (IRIs, literals, blank nodes), triples, and an indexed in-memory
// graph with N-Triples serialization.
//
// The Qurator framework (VLDB 2006) stores quality annotations as a graph
// of RDF statements: data items are wrapped as URIs (typically LSIDs),
// annotated with literal-encoded evidence values, and typed against the IQ
// ontology via rdf:type. This package is the storage substrate for the
// annotation repositories (internal/annotstore), the ontology model
// (internal/ontology) and the semantic binding registry (internal/binding).
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF term.
type TermKind uint8

const (
	// KindIRI identifies a named resource, e.g. <urn:lsid:uniprot.org:uniprot:P30089>.
	KindIRI TermKind = iota + 1
	// KindLiteral identifies a literal value, optionally typed or language-tagged.
	KindLiteral
	// KindBlank identifies a blank (anonymous) node, e.g. _:b1.
	KindBlank
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Well-known datatype and vocabulary IRIs.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"

	RDFType         = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSSubClassOf  = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	RDFSLabel       = "http://www.w3.org/2000/01/rdf-schema#label"
	RDFSDomain      = "http://www.w3.org/2000/01/rdf-schema#domain"
	RDFSRange       = "http://www.w3.org/2000/01/rdf-schema#range"
	OWLClass        = "http://www.w3.org/2002/07/owl#Class"
	OWLObjectProp   = "http://www.w3.org/2002/07/owl#ObjectProperty"
	OWLDatatypeProp = "http://www.w3.org/2002/07/owl#DatatypeProperty"
)

// Term is an RDF term. The zero Term is invalid; construct terms with
// IRI, Literal, TypedLiteral, Integer, Double, Boolean, or Blank.
//
// Terms are small value types designed for use as map keys; two terms
// compare equal with == exactly when they denote the same RDF term.
type Term struct {
	kind TermKind
	// value holds the IRI string, the literal lexical form, or the blank
	// node label depending on kind.
	value string
	// datatype holds the datatype IRI for literals ("" means xsd:string
	// unless lang is set); unused for other kinds.
	datatype string
	// lang holds the language tag for language-tagged literals.
	lang string
}

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{kind: KindIRI, value: iri} }

// Literal returns a plain string literal term.
func Literal(lexical string) Term { return Term{kind: KindLiteral, value: lexical} }

// LangLiteral returns a language-tagged string literal.
func LangLiteral(lexical, lang string) Term {
	return Term{kind: KindLiteral, value: lexical, lang: lang}
}

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lexical, datatype string) Term {
	return Term{kind: KindLiteral, value: lexical, datatype: datatype}
}

// Integer returns an xsd:integer literal.
func Integer(v int64) Term {
	return TypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// Double returns an xsd:double literal.
func Double(v float64) Term {
	return TypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// Boolean returns an xsd:boolean literal.
func Boolean(v bool) Term {
	return TypedLiteral(strconv.FormatBool(v), XSDBoolean)
}

// Blank returns a blank node with the given label (without the "_:" prefix).
func Blank(label string) Term { return Term{kind: KindBlank, value: label} }

// Kind reports the term kind. The zero Term reports 0 (invalid).
func (t Term) Kind() TermKind { return t.kind }

// IsZero reports whether t is the invalid zero Term.
func (t Term) IsZero() bool { return t.kind == 0 }

// Value returns the IRI string, literal lexical form, or blank label.
func (t Term) Value() string { return t.value }

// Datatype returns the literal's datatype IRI. Plain literals report
// xsd:string; language-tagged literals report "".
func (t Term) Datatype() string {
	if t.kind != KindLiteral {
		return ""
	}
	if t.lang != "" {
		return ""
	}
	if t.datatype == "" {
		return XSDString
	}
	return t.datatype
}

// Lang returns the language tag of a language-tagged literal, or "".
func (t Term) Lang() string { return t.lang }

// IsIRI reports whether t is an IRI term.
func (t Term) IsIRI() bool { return t.kind == KindIRI }

// IsLiteral reports whether t is a literal term.
func (t Term) IsLiteral() bool { return t.kind == KindLiteral }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.kind == KindBlank }

// Float returns the numeric value of a numeric literal.
// It accepts xsd:double, xsd:integer, and any literal whose lexical form
// parses as a float.
func (t Term) Float() (float64, bool) {
	if t.kind != KindLiteral {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.value, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// Int returns the integer value of an integer-valued literal.
func (t Term) Int() (int64, bool) {
	if t.kind != KindLiteral {
		return 0, false
	}
	n, err := strconv.ParseInt(t.value, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Bool returns the boolean value of an xsd:boolean literal.
func (t Term) Bool() (bool, bool) {
	if t.kind != KindLiteral {
		return false, false
	}
	b, err := strconv.ParseBool(t.value)
	if err != nil {
		return false, false
	}
	return b, true
}

// AppendKey appends a compact, collision-free encoding of the term to buf
// and returns the extended slice. It is the allocation-light alternative
// to String() for building composite dedup keys (e.g. SPARQL DISTINCT):
// each field is length-prefixed so distinct terms never collide.
func (t Term) AppendKey(buf []byte) []byte {
	buf = append(buf, byte(t.kind))
	buf = strconv.AppendUint(buf, uint64(len(t.value)), 10)
	buf = append(buf, ':')
	buf = append(buf, t.value...)
	buf = strconv.AppendUint(buf, uint64(len(t.datatype)), 10)
	buf = append(buf, ':')
	buf = append(buf, t.datatype...)
	buf = append(buf, t.lang...)
	return buf
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.kind {
	case KindIRI:
		return "<" + t.value + ">"
	case KindBlank:
		return "_:" + t.value
	case KindLiteral:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.value))
		b.WriteByte('"')
		if t.lang != "" {
			b.WriteByte('@')
			b.WriteString(t.lang)
		} else if t.datatype != "" {
			// An explicit xsd:string too: TypedLiteral(x, XSDString) and
			// Literal(x) are distinct terms, and each must read back as itself.
			b.WriteString("^^<")
			b.WriteString(t.datatype)
			b.WriteByte('>')
		}
		return b.String()
	default:
		return "<<invalid term>>"
	}
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	// Iterate bytes, not runes: literals may carry arbitrary byte
	// sequences and must round-trip unchanged.
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unescapeLiteral(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("rdf: dangling escape in literal %q", s)
		}
		switch s[i] {
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case 'u':
			if i+4 >= len(s) {
				return "", fmt.Errorf("rdf: truncated \\u escape in literal %q", s)
			}
			code, err := strconv.ParseUint(s[i+1:i+5], 16, 32)
			if err != nil {
				return "", fmt.Errorf("rdf: bad \\u escape in literal %q: %v", s, err)
			}
			b.WriteRune(rune(code))
			i += 4
		default:
			return "", fmt.Errorf("rdf: unknown escape \\%c in literal %q", s[i], s)
		}
	}
	return b.String(), nil
}

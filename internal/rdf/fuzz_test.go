package rdf

import "testing"

// FuzzParseTriple: arbitrary lines must either be rejected or round-trip
// through the canonical rendering.
func FuzzParseTriple(f *testing.F) {
	seeds := []string{
		`<urn:a> <urn:b> <urn:c> .`,
		`<urn:a> <urn:b> "literal" .`,
		`<urn:a> <urn:b> "esc\"aped\n" .`,
		`_:b1 <urn:b> "x"@en .`,
		`<urn:a> <urn:b> "3.5"^^<http://www.w3.org/2001/XMLSchema#double> .`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		tr, err := ParseTriple(line)
		if err != nil {
			return
		}
		again, err := ParseTriple(tr.String())
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", tr.String(), err)
		}
		if again != tr {
			t.Fatalf("round trip changed triple: %v vs %v", tr, again)
		}
	})
}

// fuzzTerm builds a term of the kind selected by k from fuzzed strings.
func fuzzTerm(k uint8, value, datatype, lang string) Term {
	switch k % 5 {
	case 0:
		return IRI(value)
	case 1:
		return Blank(value)
	case 2:
		return Literal(value)
	case 3:
		return TypedLiteral(value, datatype)
	default:
		return LangLiteral(value, lang)
	}
}

// FuzzTripleValidateRoundTrip: every triple Validate accepts reads back
// through ParseTriple from its rendering as the same triple, so a store
// that validates what it writes recovers exactly that.
func FuzzTripleValidateRoundTrip(f *testing.F) {
	f.Add(uint8(0), "urn:s", "urn:p", uint8(0), "urn:o", "", "")
	f.Add(uint8(0), "urn:x> <urn:y", "urn:p", uint8(2), "v", "", "")
	f.Add(uint8(1), "b 1", "urn:p", uint8(1), "b\t2", "", "")
	f.Add(uint8(0), "urn:s#condition-filter top k score", "urn:p", uint8(3), "3.5", XSDDouble, "")
	f.Add(uint8(0), "urn:s", "urn:p", uint8(3), "x", XSDString, "")
	f.Add(uint8(0), "urn:s", "urn:p", uint8(3), "x", "urn:dt>", "")
	f.Add(uint8(0), "urn:s", "urn:p", uint8(4), "chat", "", "fr")
	f.Add(uint8(0), "urn:s", "urn:p", uint8(4), "x", "", "en.us")
	f.Add(uint8(0), "urn:s", "", uint8(2), "esc\"aped\n\\", "", "")
	f.Fuzz(func(t *testing.T, sk uint8, s, p string, ok uint8, o, datatype, lang string) {
		tr := T(fuzzTerm(sk, s, "", ""), IRI(p), fuzzTerm(ok, o, datatype, lang))
		if tr.Validate() != nil {
			return
		}
		back, err := ParseTriple(tr.String())
		if err != nil {
			t.Fatalf("Validate accepted %#v, but its rendering %q does not parse: %v", tr, tr.String(), err)
		}
		if back != tr {
			t.Fatalf("Validate accepted %#v, but its rendering %q reads back as %#v", tr, tr.String(), back)
		}
	})
}

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

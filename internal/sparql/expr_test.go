package sparql

import (
	"strings"
	"testing"

	"qurator/internal/rdf"
)

// exprGraph backs expression-focused tests.
func exprGraph() *rdf.Graph {
	g := rdf.NewGraph()
	g.MustAdd(rdf.T(rdf.IRI("urn:i1"), rdf.IRI("urn:n"), rdf.Integer(4)))
	g.MustAdd(rdf.T(rdf.IRI("urn:i1"), rdf.IRI("urn:s"), rdf.Literal("alpha")))
	g.MustAdd(rdf.T(rdf.IRI("urn:i2"), rdf.IRI("urn:n"), rdf.Integer(10)))
	g.MustAdd(rdf.T(rdf.IRI("urn:i2"), rdf.IRI("urn:s"), rdf.Literal("beta")))
	g.MustAdd(rdf.T(rdf.IRI("urn:i3"), rdf.IRI("urn:b"), rdf.Boolean(true)))
	return g
}

func rows(t *testing.T, query string) int {
	t.Helper()
	r, err := Exec(exprGraph(), query)
	if err != nil {
		t.Fatalf("Exec(%q): %v", query, err)
	}
	return len(r.Bindings)
}

func TestArithmeticOperators(t *testing.T) {
	cases := []struct {
		filter string
		want   int
	}{
		{"?n - 1 = 3", 1},
		{"?n * 2 = 20", 1},
		{"?n / 2 = 2", 1},
		{"?n + ?n = 8", 1},
		{"-1 + ?n = 3", 1},
		{"?n / 0 = 1", 0}, // division by zero eliminates
		{"?s + 1 = 2", 0}, // non-numeric operand eliminates
	}
	for _, c := range cases {
		q := "SELECT ?x WHERE { ?x <urn:n> ?n . OPTIONAL { ?x <urn:s> ?s . } FILTER (" + c.filter + ") }"
		if got := rows(t, q); got != c.want {
			t.Errorf("FILTER %s: rows = %d, want %d", c.filter, got, c.want)
		}
	}
}

func TestStringComparisonFallback(t *testing.T) {
	cases := []struct {
		filter string
		want   int
	}{
		{`?s = "alpha"`, 1},
		{`?s != "alpha"`, 1},
		{`?s < "b"`, 1},
		{`?s <= "alpha"`, 1},
		{`?s > "alpha"`, 1},
		{`?s >= "beta"`, 1},
	}
	for _, c := range cases {
		q := "SELECT ?x WHERE { ?x <urn:s> ?s . FILTER (" + c.filter + ") }"
		if got := rows(t, q); got != c.want {
			t.Errorf("FILTER %s: rows = %d, want %d", c.filter, got, c.want)
		}
	}
}

func TestBooleanLiteralAndNot(t *testing.T) {
	if got := rows(t, "SELECT ?x WHERE { ?x <urn:b> ?v . FILTER (?v = true) }"); got != 1 {
		t.Errorf("boolean equality rows = %d", got)
	}
	if got := rows(t, "SELECT ?x WHERE { ?x <urn:b> ?v . FILTER (!(?v = false)) }"); got != 1 {
		t.Errorf("negation rows = %d", got)
	}
}

func TestDatatypeFunction(t *testing.T) {
	q := "SELECT ?x WHERE { ?x <urn:n> ?v . FILTER (DATATYPE(?v) = <" + rdf.XSDInteger + ">) }"
	if got := rows(t, q); got != 2 {
		t.Errorf("DATATYPE rows = %d, want 2", got)
	}
	// DATATYPE of a non-literal eliminates.
	q = "SELECT ?x WHERE { ?x <urn:n> ?v . FILTER (DATATYPE(?x) = <" + rdf.XSDInteger + ">) }"
	if got := rows(t, q); got != 0 {
		t.Errorf("DATATYPE(iri) rows = %d, want 0", got)
	}
}

func TestRegexFlagsAndDynamicPattern(t *testing.T) {
	// Case-insensitive flag.
	if got := rows(t, `SELECT ?x WHERE { ?x <urn:s> ?s . FILTER REGEX(?s, "ALPHA", "i") }`); got != 1 {
		t.Errorf("regex /i rows = %d", got)
	}
	// Dynamic (variable) pattern: match a value against itself.
	if got := rows(t, `SELECT ?x WHERE { ?x <urn:s> ?s . FILTER REGEX(?s, STR(?s)) }`); got != 2 {
		t.Errorf("dynamic regex rows = %d", got)
	}
	// Invalid constant pattern is a parse-time error.
	if _, err := Parse(`SELECT ?x WHERE { ?x <urn:s> ?s . FILTER REGEX(?s, "[") }`); err == nil {
		t.Error("invalid regex should fail at parse time")
	}
}

func TestExprStringRendering(t *testing.T) {
	// Every expression node renders to a non-empty, re-parseable string.
	srcs := []string{
		`SELECT ?x WHERE { ?x <urn:n> ?n . FILTER (?n > 1 && ?n < 100 || !BOUND(?z)) }`,
		`SELECT ?x WHERE { ?x <urn:n> ?n . FILTER (?n + 2 * 3 - 1 / 1 >= 0) }`,
		`SELECT ?x WHERE { ?x <urn:s> ?s . FILTER (?s IN ("alpha", "beta")) }`,
		`SELECT ?x WHERE { ?x <urn:s> ?s . FILTER (?s NOT IN ("x")) }`,
		`SELECT ?x WHERE { ?x <urn:s> ?s . FILTER REGEX(STR(?s), "a") }`,
		`SELECT ?x WHERE { ?x <urn:n> ?n . FILTER (DATATYPE(?n) = <urn:t>) }`,
	}
	for _, src := range srcs {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		for _, f := range q.Where.Filters {
			s := f.String()
			if s == "" {
				t.Errorf("empty rendering for filter of %q", src)
			}
		}
	}
	// Triple pattern and binding rendering.
	q, _ := Parse(`SELECT ?x WHERE { ?x <urn:p> "v" . }`)
	if got := q.Where.Patterns[0].String(); !strings.Contains(got, "?x") || !strings.Contains(got, "<urn:p>") {
		t.Errorf("pattern rendering = %q", got)
	}
	b := Binding{"x": rdf.IRI("urn:a")}
	if got := b.String(); !strings.Contains(got, "?x=") {
		t.Errorf("binding rendering = %q", got)
	}
}

func TestNumericComparisonAllOps(t *testing.T) {
	for _, c := range []struct {
		filter string
		want   int
	}{
		{"?n = 4", 1}, {"?n != 4", 1}, {"?n < 10", 1},
		{"?n <= 4", 1}, {"?n > 4", 1}, {"?n >= 10", 1},
	} {
		q := "SELECT ?x WHERE { ?x <urn:n> ?n . FILTER (" + c.filter + ") }"
		if got := rows(t, q); got != c.want {
			t.Errorf("FILTER %s: rows = %d, want %d", c.filter, got, c.want)
		}
	}
}

func TestUnboundVariableInFilterEliminates(t *testing.T) {
	if got := rows(t, "SELECT ?x WHERE { ?x <urn:n> ?n . FILTER (?ghost > 1) }"); got != 0 {
		t.Errorf("unbound filter variable should eliminate all rows, got %d", got)
	}
}

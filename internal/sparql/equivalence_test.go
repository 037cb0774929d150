package sparql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qurator/internal/rdf"
)

// genGraph builds a random graph over a small term universe so that
// random patterns join with reasonable probability.
func genGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	n := 10 + rng.Intn(80)
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		var obj rdf.Term
		switch rng.Intn(3) {
		case 0:
			obj = rdf.Integer(int64(rng.Intn(15)))
		case 1:
			obj = rdf.IRI(fmt.Sprintf("urn:s%d", rng.Intn(8)))
		default:
			obj = rdf.Literal(fmt.Sprintf("lit%d", rng.Intn(6)))
		}
		ts = append(ts, rdf.T(
			rdf.IRI(fmt.Sprintf("urn:s%d", rng.Intn(8))),
			rdf.IRI(fmt.Sprintf("urn:p%d", rng.Intn(4))),
			obj,
		))
	}
	if _, err := g.AddBatch(ts); err != nil {
		panic(err)
	}
	return g
}

var genVars = []string{"a", "b", "c", "d"}

func genPatternTerm(rng *rand.Rand, pos int) string {
	if rng.Intn(2) == 0 {
		return "?" + genVars[rng.Intn(len(genVars))]
	}
	switch pos {
	case 0:
		return fmt.Sprintf("<urn:s%d>", rng.Intn(8))
	case 1:
		return fmt.Sprintf("<urn:p%d>", rng.Intn(4))
	default:
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("%d", rng.Intn(15))
		}
		return fmt.Sprintf("<urn:s%d>", rng.Intn(8))
	}
}

func genTriplePattern(rng *rand.Rand) string {
	return fmt.Sprintf("%s %s %s .",
		genPatternTerm(rng, 0), genPatternTerm(rng, 1), genPatternTerm(rng, 2))
}

func genGroup(rng *rand.Rand, depth int) string {
	var sb strings.Builder
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		sb.WriteString(genTriplePattern(rng))
		sb.WriteString(" ")
	}
	if depth > 0 && rng.Intn(3) == 0 {
		fmt.Fprintf(&sb, "OPTIONAL { %s } ", genGroup(rng, depth-1))
	}
	if depth > 0 && rng.Intn(3) == 0 {
		fmt.Fprintf(&sb, "{ %s } UNION { %s } ", genGroup(rng, depth-1), genGroup(rng, depth-1))
	}
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&sb, "FILTER (?%s > %d) ", genVars[rng.Intn(len(genVars))], rng.Intn(10))
	}
	return sb.String()
}

// genQuery returns a random query string and whether it carries an
// explicit ORDER BY (in which case results are compared as multisets:
// stable-sort tie order on a projected-var subset is not part of the
// contract shared by the two evaluators).
func genQuery(rng *rand.Rand) (query string, explicitOrder bool) {
	var sb strings.Builder
	if rng.Intn(8) == 0 {
		fmt.Fprintf(&sb, "ASK { %s }", genGroup(rng, 2))
		return sb.String(), false
	}
	sb.WriteString("SELECT ")
	if rng.Intn(3) == 0 {
		sb.WriteString("DISTINCT ")
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("*")
	} else {
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			fmt.Fprintf(&sb, "?%s ", genVars[rng.Intn(len(genVars))])
		}
	}
	fmt.Fprintf(&sb, " WHERE { %s }", genGroup(rng, 2))
	if rng.Intn(3) == 0 {
		explicitOrder = true
		fmt.Fprintf(&sb, " ORDER BY ")
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "DESC(?%s)", genVars[rng.Intn(len(genVars))])
		} else {
			fmt.Fprintf(&sb, "?%s", genVars[rng.Intn(len(genVars))])
		}
	} else {
		// Without explicit ORDER BY both evaluators sort on the full
		// projected row, so LIMIT/OFFSET slices are deterministic and
		// exactly comparable.
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", rng.Intn(10))
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, " OFFSET %d", rng.Intn(5))
		}
	}
	return sb.String(), explicitOrder
}

func renderRow(vars []string, b Binding) string {
	var key []byte
	for _, v := range vars {
		key = b[v].AppendKey(key)
		key = append(key, 0)
	}
	return string(key)
}

func renderRows(vars []string, rows []Binding) []string {
	out := make([]string, len(rows))
	for i, b := range rows {
		out[i] = renderRow(vars, b)
	}
	return out
}

// TestEvaluatorEquivalenceProperty runs randomized queries (patterns,
// OPTIONAL, UNION, FILTER, DISTINCT, ORDER/LIMIT/OFFSET) against both the
// materializing reference evaluator and the streaming one on random
// graphs, asserting identical results.
func TestEvaluatorEquivalenceProperty(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 100
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := genGraph(rng)
		query, explicitOrder := genQuery(rng)

		want, errB := ExecBaseline(g.Snapshot(), query)
		got, errS := Exec(g, query)
		if (errB == nil) != (errS == nil) {
			t.Fatalf("seed %d: error mismatch baseline=%v streaming=%v\nquery: %s", seed, errB, errS, query)
		}
		if errB != nil {
			continue
		}
		if want.Ok != got.Ok {
			t.Fatalf("seed %d: ASK mismatch baseline=%v streaming=%v\nquery: %s", seed, want.Ok, got.Ok, query)
		}
		if len(want.Bindings) != len(got.Bindings) {
			t.Fatalf("seed %d: row count mismatch baseline=%d streaming=%d\nquery: %s",
				seed, len(want.Bindings), len(got.Bindings), query)
		}
		wantRows := renderRows(want.Vars, want.Bindings)
		gotRows := renderRows(got.Vars, got.Bindings)
		if explicitOrder {
			// Ties under an explicit ORDER BY on a var subset may be
			// broken differently; compare as multisets.
			sort.Strings(wantRows)
			sort.Strings(gotRows)
		}
		for i := range wantRows {
			if wantRows[i] != gotRows[i] {
				t.Fatalf("seed %d: row %d differs\nbaseline:  %v\nstreaming: %v\nquery: %s",
					seed, i, want.Bindings[i], got.Bindings[i], query)
			}
		}
	}
}

// TestEvaluatorEquivalenceOnSnapshotAndGraph checks that Exec over a live
// graph and over an explicit snapshot of it agree.
func TestEvaluatorEquivalenceOnSnapshotAndGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := genGraph(rng)
	query := "SELECT ?a ?b WHERE { ?a <urn:p0> ?b . OPTIONAL { ?a <urn:p1> ?c . } }"
	fromGraph, err := Exec(g, query)
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := Exec(g.Snapshot(), query)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromGraph.Bindings) != len(fromSnap.Bindings) {
		t.Fatalf("row count: graph=%d snapshot=%d", len(fromGraph.Bindings), len(fromSnap.Bindings))
	}
	for i := range fromGraph.Bindings {
		if renderRow(fromGraph.Vars, fromGraph.Bindings[i]) != renderRow(fromSnap.Vars, fromSnap.Bindings[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, fromGraph.Bindings[i], fromSnap.Bindings[i])
		}
	}
}

package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, g *Graph, tr Triple) {
	t.Helper()
	added, err := g.Add(tr)
	if err != nil {
		t.Fatalf("Add(%v): %v", tr, err)
	}
	if !added {
		t.Fatalf("Add(%v): expected insertion", tr)
	}
}

func TestGraphAddHasRemove(t *testing.T) {
	g := NewGraph()
	tr := T(IRI("urn:s"), IRI("urn:p"), Literal("o"))
	mustAdd(t, g, tr)
	if !g.Has(tr) {
		t.Fatal("Has should find inserted triple")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	// Duplicate insert is a no-op.
	added, err := g.Add(tr)
	if err != nil || added {
		t.Fatalf("duplicate Add = (%v, %v), want (false, nil)", added, err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len after dup = %d, want 1", g.Len())
	}
	if !g.Remove(tr) {
		t.Fatal("Remove should report true for present triple")
	}
	if g.Has(tr) || g.Len() != 0 {
		t.Fatal("triple should be gone after Remove")
	}
	if g.Remove(tr) {
		t.Fatal("Remove of absent triple should report false")
	}
}

func TestGraphAddValidation(t *testing.T) {
	g := NewGraph()
	bad := []Triple{
		{},
		T(Literal("s"), IRI("urn:p"), Literal("o")),
		T(IRI("urn:s"), Literal("p"), Literal("o")),
		T(IRI("urn:s"), Blank("p"), Literal("o")),
	}
	for _, tr := range bad {
		if _, err := g.Add(tr); err == nil {
			t.Errorf("Add(%v) should fail validation", tr)
		}
	}
	// Blank subject is legal.
	if _, err := g.Add(T(Blank("b"), IRI("urn:p"), IRI("urn:o"))); err != nil {
		t.Errorf("blank subject should be legal: %v", err)
	}
}

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	stmts := []Triple{
		T(IRI("urn:p1"), IRI(RDFType), IRI("urn:Protein")),
		T(IRI("urn:p2"), IRI(RDFType), IRI("urn:Protein")),
		T(IRI("urn:p1"), IRI("urn:hr"), Double(0.8)),
		T(IRI("urn:p2"), IRI("urn:hr"), Double(0.3)),
		T(IRI("urn:p1"), IRI("urn:mc"), Double(0.5)),
	}
	for _, s := range stmts {
		mustAdd(t, g, s)
	}
	return g
}

func TestGraphMatchPatterns(t *testing.T) {
	g := buildTestGraph(t)
	cases := []struct {
		name    string
		s, p, o Term
		want    int
	}{
		{"all wild", Term{}, Term{}, Term{}, 5},
		{"by subject", IRI("urn:p1"), Term{}, Term{}, 3},
		{"by predicate", Term{}, IRI("urn:hr"), Term{}, 2},
		{"by object", Term{}, Term{}, IRI("urn:Protein"), 2},
		{"s+p", IRI("urn:p1"), IRI("urn:hr"), Term{}, 1},
		{"p+o", Term{}, IRI(RDFType), IRI("urn:Protein"), 2},
		{"s+o", IRI("urn:p1"), Term{}, Double(0.5), 1},
		{"exact hit", IRI("urn:p1"), IRI("urn:mc"), Double(0.5), 1},
		{"exact miss", IRI("urn:p1"), IRI("urn:mc"), Double(0.9), 0},
		{"absent subject", IRI("urn:nope"), Term{}, Term{}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := g.Match(c.s, c.p, c.o)
			if len(got) != c.want {
				t.Errorf("Match returned %d triples, want %d: %v", len(got), c.want, got)
			}
			if n := g.Count(c.s, c.p, c.o); n != c.want {
				t.Errorf("Count = %d, want %d", n, c.want)
			}
		})
	}
}

func TestGraphMatchDeterministicOrder(t *testing.T) {
	g := buildTestGraph(t)
	first := g.Match(Term{}, Term{}, Term{})
	for i := 0; i < 5; i++ {
		if again := g.Match(Term{}, Term{}, Term{}); !reflect.DeepEqual(first, again) {
			t.Fatal("Match order is not deterministic")
		}
	}
}

func TestGraphSubjectsObjects(t *testing.T) {
	g := buildTestGraph(t)
	subs := g.Subjects(IRI(RDFType), IRI("urn:Protein"))
	if len(subs) != 2 || subs[0] != IRI("urn:p1") || subs[1] != IRI("urn:p2") {
		t.Errorf("Subjects = %v", subs)
	}
	objs := g.Objects(IRI("urn:p1"), IRI("urn:hr"))
	if len(objs) != 1 || objs[0] != Double(0.8) {
		t.Errorf("Objects = %v", objs)
	}
	if got := g.FirstObject(IRI("urn:p1"), IRI("urn:hr")); got != Double(0.8) {
		t.Errorf("FirstObject = %v", got)
	}
	if got := g.FirstObject(IRI("urn:p1"), IRI("urn:none")); !got.IsZero() {
		t.Errorf("FirstObject of absent property = %v, want zero", got)
	}
}

func TestGraphForEachMatchEarlyStop(t *testing.T) {
	g := buildTestGraph(t)
	n := 0
	g.ForEachMatch(Term{}, Term{}, Term{}, func(Triple) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestGraphCloneMergeClear(t *testing.T) {
	g := buildTestGraph(t)
	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), g.Len())
	}
	mustAdd(t, c, T(IRI("urn:extra"), IRI("urn:p"), Literal("x")))
	if g.Has(T(IRI("urn:extra"), IRI("urn:p"), Literal("x"))) {
		t.Fatal("mutating clone affected original")
	}
	c.Clear()
	if c.Len() != 0 || len(c.Triples()) != 0 {
		t.Fatal("Clear should empty the graph")
	}
}

func TestGraphConcurrentAccess(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := IRI(fmt.Sprintf("urn:s%d", w))
				tr := T(s, IRI("urn:p"), Integer(int64(i)))
				if _, err := g.Add(tr); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				g.Count(s, Term{}, Term{})
				if i%3 == 0 {
					g.Remove(tr)
				}
			}
		}(w)
	}
	wg.Wait()
}

// Property: for any random set of triples, the graph behaves like a set —
// Len equals the number of distinct triples and every inserted triple is
// findable via every index rotation.
func TestGraphSetSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		set := make(map[Triple]struct{})
		for i := 0; i < 100; i++ {
			tr := T(
				IRI(fmt.Sprintf("urn:s%d", rng.Intn(10))),
				IRI(fmt.Sprintf("urn:p%d", rng.Intn(5))),
				Integer(int64(rng.Intn(8))),
			)
			if rng.Intn(4) == 0 {
				g.Remove(tr)
				delete(set, tr)
				continue
			}
			if _, err := g.Add(tr); err != nil {
				return false
			}
			set[tr] = struct{}{}
		}
		if g.Len() != len(set) {
			return false
		}
		for tr := range set {
			if !g.Has(tr) {
				return false
			}
			if len(g.Match(tr.Subject, Term{}, Term{})) == 0 ||
				len(g.Match(Term{}, tr.Predicate, Term{})) == 0 ||
				len(g.Match(Term{}, Term{}, tr.Object)) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	mustAdd(t, g, T(Blank("b1"), IRI("urn:note"), LangLiteral("hóla", "es")))
	mustAdd(t, g, T(IRI("urn:p1"), IRI("urn:desc"), Literal("line\nwith \"quotes\"")))

	for _, tr := range g.Triples() {
		back, err := ParseTriple(tr.String())
		if err != nil {
			t.Fatalf("ParseTriple(%q): %v", tr.String(), err)
		}
		if back != tr {
			t.Errorf("round trip mismatch: got %v, want %v", back, tr)
		}
	}
}

func TestParseTripleErrors(t *testing.T) {
	bad := []string{
		"<urn:a> <urn:b> \"c\"",          // missing dot
		"<urn:a> <urn:b> .",              // missing object
		"\"lit\" <urn:b> <urn:c> .",      // literal subject
		"<urn:a> \"lit\" <urn:c> .",      // literal predicate
		"<urn:a> <urn:b> <urn:c> . junk", // trailing garbage
	}
	for _, s := range bad {
		if _, err := ParseTriple(s); err == nil {
			t.Errorf("ParseTriple(%q) should fail", s)
		}
	}
}

func BenchmarkGraphAdd(b *testing.B) {
	b.Run("subject-fanout", func(b *testing.B) {
		g := NewGraph()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Add(T(IRI(fmt.Sprintf("urn:s%d", i%1000)), IRI("urn:p"), Integer(int64(i))))
		}
	})
	// Five triples per op, shaped as annotstore's Put writes them; the
	// terms are built before the timer starts.
	b.Run("annotation", func(b *testing.B) {
		ts := annotationTriples(b.N)
		g := NewGraph()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < len(ts); i += 5 {
			g.AddBatch(ts[i : i+5])
		}
	})
}

func BenchmarkGraphMatchBySubject(b *testing.B) {
	g := NewGraph()
	for i := 0; i < 10000; i++ {
		g.Add(T(IRI(fmt.Sprintf("urn:s%d", i%100)), IRI(fmt.Sprintf("urn:p%d", i%7)), Integer(int64(i))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Count(IRI(fmt.Sprintf("urn:s%d", i%100)), Term{}, Term{})
	}
}

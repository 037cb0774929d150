package goa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func smallGO(t *testing.T) *DB {
	t.Helper()
	db := New()
	terms := []Term{
		{ID: "GO:0003674", Name: "molecular_function"},
		{ID: "GO:0005488", Name: "binding", Parents: []string{"GO:0003674"}},
		{ID: "GO:0005515", Name: "protein binding", Parents: []string{"GO:0005488"}},
		{ID: "GO:0003824", Name: "catalytic activity", Parents: []string{"GO:0003674"}},
	}
	for _, term := range terms {
		if err := db.PutTerm(term); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestTermStorage(t *testing.T) {
	db := smallGO(t)
	if db.TermCount() != 4 {
		t.Errorf("TermCount = %d", db.TermCount())
	}
	term, ok := db.Term("GO:0005515")
	if !ok || term.Name != "protein binding" {
		t.Errorf("Term = %+v, %v", term, ok)
	}
	if _, ok := db.Term("GO:9999999"); ok {
		t.Error("missing term should not be found")
	}
	if err := db.PutTerm(Term{}); err == nil {
		t.Error("term without ID should fail")
	}
}

func TestAnnotateAndQuery(t *testing.T) {
	db := smallGO(t)
	anns := []Annotation{
		{ProteinAccession: "P1", TermID: "GO:0005515", EvidenceCode: "TAS", JournalImpactFactor: 8.5},
		{ProteinAccession: "P1", TermID: "GO:0003824", EvidenceCode: "IEA"},
		{ProteinAccession: "P2", TermID: "GO:0005515", EvidenceCode: "IDA"},
	}
	for _, a := range anns {
		if err := db.Annotate(a); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.AnnotationsFor("P1"); len(got) != 2 {
		t.Errorf("AnnotationsFor(P1) = %v", got)
	}
	if got := db.TermsFor("P1"); !reflect.DeepEqual(got, []string{"GO:0003824", "GO:0005515"}) {
		t.Errorf("TermsFor(P1) = %v", got)
	}
	if got := db.AnnotationsFor("ghost"); len(got) != 0 {
		t.Errorf("AnnotationsFor(ghost) = %v", got)
	}
	// Annotation referencing an unknown term fails.
	if err := db.Annotate(Annotation{ProteinAccession: "P3", TermID: "GO:404"}); err == nil {
		t.Error("unknown term should fail")
	}
	if err := db.Annotate(Annotation{}); err == nil {
		t.Error("incomplete annotation should fail")
	}
}

func TestGenerateSynthetic(t *testing.T) {
	db := New()
	accs := make([]string, 30)
	for i := range accs {
		accs[i] = fmt.Sprintf("SYN%05d", i)
	}
	rng := rand.New(rand.NewSource(9))
	if err := GenerateSynthetic(db, accs, 50, 4, rng); err != nil {
		t.Fatal(err)
	}
	if db.TermCount() != 50 {
		t.Errorf("TermCount = %d", db.TermCount())
	}
	annotated := 0
	for _, acc := range accs {
		terms := db.TermsFor(acc)
		if len(terms) > 0 {
			annotated++
		}
		if len(terms) > 4 {
			t.Errorf("%s has %d terms, max 4", acc, len(terms))
		}
		for _, a := range db.AnnotationsFor(acc) {
			found := false
			for _, c := range EvidenceCodes {
				if a.EvidenceCode == c {
					found = true
				}
			}
			if !found {
				t.Errorf("unknown evidence code %q", a.EvidenceCode)
			}
		}
	}
	if annotated != len(accs) {
		t.Errorf("only %d/%d proteins annotated", annotated, len(accs))
	}
	// Determinism under a fixed seed.
	db2 := New()
	GenerateSynthetic(db2, accs, 50, 4, rand.New(rand.NewSource(9)))
	for _, acc := range accs {
		if !reflect.DeepEqual(db.TermsFor(acc), db2.TermsFor(acc)) {
			t.Fatal("synthetic GOA not deterministic under fixed seed")
		}
	}
	// Parameter validation.
	if err := GenerateSynthetic(New(), accs, 0, 4, rng); err == nil {
		t.Error("nTerms=0 should fail")
	}
	// The is-a forest is acyclic: every parent sorts before its child, so
	// no term is its own ancestor.
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("GO:%07d", 1000+i)
		term, _ := db.Term(id)
		for _, parent := range term.Parents {
			if parent >= id {
				t.Fatalf("term %s has parent %s, which does not precede it", id, parent)
			}
		}
	}
}

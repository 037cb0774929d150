// Package goa simulates the GOA database and the fragment of the Gene
// Ontology it annotates against (paper §1.1): GOA "links protein
// accession numbers with terms describing molecular function, expressed
// in a standard controlled vocabulary" — the final lookup of the ISPIDER
// workflow, and the output whose ranking the Figure 7 experiment
// measures. Annotations carry evidence codes, the reliability indicator
// of paper reference [16] used by the credibility quality view.
package goa

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Term is one Gene Ontology term.
type Term struct {
	// ID is the GO accession, e.g. "GO:0005515".
	ID string
	// Name is the human-readable label, e.g. "protein binding".
	Name string
	// Parents are the is-a parents' IDs.
	Parents []string
}

// Annotation links a protein to a GO term.
type Annotation struct {
	// ProteinAccession is the annotated protein.
	ProteinAccession string
	// TermID is the GO term.
	TermID string
	// EvidenceCode records how the annotation was established (TAS, IDA,
	// ..., IEA).
	EvidenceCode string
	// JournalImpactFactor is the impact factor of the citing journal
	// (0 when the annotation cites no publication).
	JournalImpactFactor float64
}

// DB is an in-memory GOA instance plus its GO term table. Safe for
// concurrent reads after loading.
type DB struct {
	mu          sync.RWMutex
	terms       map[string]Term
	annotations map[string][]Annotation // by protein accession
}

// New returns an empty database.
func New() *DB {
	return &DB{
		terms:       make(map[string]Term),
		annotations: make(map[string][]Annotation),
	}
}

// PutTerm stores a GO term.
func (db *DB) PutTerm(t Term) error {
	if t.ID == "" {
		return fmt.Errorf("goa: term without ID")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.terms[t.ID] = t
	return nil
}

// Term retrieves a GO term.
func (db *DB) Term(id string) (Term, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.terms[id]
	return t, ok
}

// TermCount returns the number of stored terms.
func (db *DB) TermCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.terms)
}

// Annotate stores an annotation; the term must exist.
func (db *DB) Annotate(a Annotation) error {
	if a.ProteinAccession == "" || a.TermID == "" {
		return fmt.Errorf("goa: incomplete annotation %+v", a)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.terms[a.TermID]; !ok {
		return fmt.Errorf("goa: annotation references unknown term %q", a.TermID)
	}
	db.annotations[a.ProteinAccession] = append(db.annotations[a.ProteinAccession], a)
	return nil
}

// AnnotationsFor returns a protein's GO annotations — the GOA query of
// the ISPIDER workflow's final step.
func (db *DB) AnnotationsFor(accession string) []Annotation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]Annotation(nil), db.annotations[accession]...)
}

// TermsFor returns the distinct GO term IDs annotated to a protein,
// sorted.
func (db *DB) TermsFor(accession string) []string {
	seen := map[string]bool{}
	for _, a := range db.AnnotationsFor(accession) {
		seen[a.TermID] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Standard GO evidence codes in decreasing experimental reliability (per
// paper reference [16]'s analysis).
var EvidenceCodes = []string{"TAS", "IDA", "IMP", "IGI", "IPI", "IEP", "ISS", "NAS", "IC", "ND", "IEA"}

// GenerateSynthetic populates the database with nTerms molecular-function
// terms (arranged in a shallow is-a forest) and annotates each of the
// given protein accessions with 1..maxPerProtein terms, with random
// evidence codes and impact factors. It is the synthetic stand-in for
// the public GOA release.
func GenerateSynthetic(db *DB, accessions []string, nTerms, maxPerProtein int, rng *rand.Rand) error {
	if nTerms < 1 || maxPerProtein < 1 {
		return fmt.Errorf("goa: nTerms and maxPerProtein must be positive")
	}
	ids := make([]string, nTerms)
	for i := 0; i < nTerms; i++ {
		ids[i] = fmt.Sprintf("GO:%07d", 1000+i)
		t := Term{ID: ids[i], Name: fmt.Sprintf("molecular function %d", i)}
		// A shallow forest: every non-root term points at an earlier one.
		if i > 0 && rng.Float64() < 0.7 {
			t.Parents = []string{ids[rng.Intn(i)]}
		}
		if err := db.PutTerm(t); err != nil {
			return err
		}
	}
	for _, acc := range accessions {
		n := 1 + rng.Intn(maxPerProtein)
		seen := map[int]bool{}
		for j := 0; j < n; j++ {
			ti := rng.Intn(nTerms)
			if seen[ti] {
				continue
			}
			seen[ti] = true
			a := Annotation{
				ProteinAccession: acc,
				TermID:           ids[ti],
				EvidenceCode:     EvidenceCodes[rng.Intn(len(EvidenceCodes))],
			}
			if rng.Float64() < 0.6 {
				a.JournalImpactFactor = 0.5 + 12*rng.Float64()
			}
			if err := db.Annotate(a); err != nil {
				return err
			}
		}
	}
	return nil
}

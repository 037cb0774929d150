// Package pedro simulates the PEDRo proteomics database (paper reference
// [11]): a store of proteomics experiments, their samples (gel spots) and
// the peak lists produced for them. The running example's workflow begins
// by retrieving "a set of peak lists ... from the Pedro database"
// (paper §1.1); this package is that retrieval source.
package pedro

import (
	"fmt"
	"sync"

	"qurator/internal/proteomics"
)

// Spot is one 2-D gel spot: the unit a PMF experiment identifies.
type Spot struct {
	// ID is unique within the experiment.
	ID string
	// PeakList is the spot's mass spectrum.
	PeakList proteomics.PeakList
	// TrueProteins records the ground-truth accessions present in the
	// spot — available because our samples are synthetic; it is never
	// shown to the identification pipeline, only to the evaluation
	// harness.
	TrueProteins []string
}

// Experiment groups the spots of one wet-lab experiment.
type Experiment struct {
	// ID is the experiment accession.
	ID string
	// Description is free text (lab, organism, method).
	Description string
	Spots       []Spot
}

// DB is an in-memory PEDRo instance. Safe for concurrent use.
type DB struct {
	mu          sync.RWMutex
	experiments map[string]*Experiment
}

// New returns an empty database.
func New() *DB {
	return &DB{experiments: make(map[string]*Experiment)}
}

// PutExperiment stores (or replaces) an experiment.
func (db *DB) PutExperiment(e *Experiment) error {
	if e == nil || e.ID == "" {
		return fmt.Errorf("pedro: experiment without ID")
	}
	seen := map[string]bool{}
	for _, s := range e.Spots {
		if s.ID == "" {
			return fmt.Errorf("pedro: experiment %s has a spot without ID", e.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("pedro: experiment %s has duplicate spot %q", e.ID, s.ID)
		}
		seen[s.ID] = true
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	cp := *e
	cp.Spots = append([]Spot(nil), e.Spots...)
	db.experiments[e.ID] = &cp
	return nil
}

// Experiment retrieves an experiment by ID.
func (db *DB) Experiment(id string) (*Experiment, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.experiments[id]
	if !ok {
		return nil, false
	}
	cp := *e
	cp.Spots = append([]Spot(nil), e.Spots...)
	return &cp, true
}

// PeakLists returns the peak lists of an experiment in spot order — the
// first step of the ISPIDER workflow (Figure 1).
func (db *DB) PeakLists(experimentID string) ([]proteomics.PeakList, error) {
	e, ok := db.Experiment(experimentID)
	if !ok {
		return nil, fmt.Errorf("pedro: unknown experiment %q", experimentID)
	}
	out := make([]proteomics.PeakList, len(e.Spots))
	for i, s := range e.Spots {
		out[i] = s.PeakList
	}
	return out, nil
}

// Spot retrieves one spot of an experiment.
func (db *DB) Spot(experimentID, spotID string) (Spot, bool) {
	e, ok := db.Experiment(experimentID)
	if !ok {
		return Spot{}, false
	}
	for _, s := range e.Spots {
		if s.ID == spotID {
			return s, true
		}
	}
	return Spot{}, false
}

package annotstore

import (
	"sync"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

// This file adds annotation freshness to the repositories, making §4's
// lifetime discussion operational: long-lived evidence ("a measure of
// credibility of a functional annotation ... is bound to be long-lived")
// still goes stale eventually — the underlying database gets re-curated —
// so persistent stores record when each annotation was computed and can
// expire entries older than a bound.

// recordedAt is the property carrying an annotation node's timestamp.
var recordedAt = ontology.Q("recordedAt")

// clock is swappable for tests.
var (
	clockMu sync.RWMutex
	clock   = time.Now
)

// SetClock overrides the time source (tests only); it returns a restore
// function.
func SetClock(now func() time.Time) func() {
	clockMu.Lock()
	clock = now
	clockMu.Unlock()
	return func() {
		clockMu.Lock()
		clock = time.Now
		clockMu.Unlock()
	}
}

func nowUTC() time.Time {
	clockMu.RLock()
	defer clockMu.RUnlock()
	return clock().UTC()
}

// stampTriple is the statement recording an evidence node's write time;
// Put folds it into the same durable batch as the annotation itself.
func stampTriple(node rdf.Term, at time.Time) rdf.Triple {
	return rdf.T(node, recordedAt, rdf.Literal(at.Format(time.RFC3339Nano)))
}

// RecordedAt returns when the (item, type) annotation was written; the
// zero time when the annotation (or its stamp) is absent.
func (r *Repository) RecordedAt(item evidence.Item, typ rdf.Term) time.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	lit := r.graph.FirstObject(evidenceNode(item, typ), recordedAt)
	if lit.IsZero() {
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339Nano, lit.Value())
	if err != nil {
		return time.Time{}
	}
	return t
}

// ExpireBefore removes every annotation recorded strictly before the
// cutoff, returning the number removed. Unstamped annotations are treated
// as infinitely old and removed too. A durable store's write failure is
// returned, and nothing is removed.
func (r *Repository) ExpireBefore(cutoff time.Time) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	type target struct {
		item, node rdf.Term
	}
	var victims []target
	for _, t := range r.graph.Match(rdf.Term{}, ontology.ContainsEvidence, rdf.Term{}) {
		node := t.Object
		stale := true
		if lit := r.graph.FirstObject(node, recordedAt); !lit.IsZero() {
			if at, err := time.Parse(time.RFC3339Nano, lit.Value()); err == nil && !at.Before(cutoff) {
				stale = false
			}
		}
		if stale {
			victims = append(victims, target{t.Subject, node})
		}
	}
	var dels []rdf.Triple
	for _, v := range victims {
		dels = append(dels, r.graph.Match(v.node, rdf.Term{}, rdf.Term{})...)
		dels = append(dels, rdf.T(v.item, ontology.ContainsEvidence, v.node))
	}
	if err := r.applyLocked(dels, nil); err != nil {
		return 0, err
	}
	return len(victims), nil
}

package rdf

import "time"

// Dataset is the read-only access contract shared by the live *Graph and
// the immutable *Snapshot: pattern iteration plus the index statistics
// the SPARQL planner uses to order joins. Reads through a *Graph
// synchronize with writers; reads through a *Snapshot are lock-free.
type Dataset interface {
	// ForEachMatch calls fn for every triple matching the pattern (zero
	// Terms are wildcards) until fn returns false.
	ForEachMatch(s, p, o Term, fn func(Triple) bool)
	// Cardinality returns the exact number of triples matching the
	// pattern in O(1) using the per-position index statistics.
	Cardinality(s, p, o Term) int
	// Stats returns dataset-level statistics.
	Stats() DatasetStats
	// Len returns the number of triples.
	Len() int
}

// DatasetStats summarizes a dataset's index statistics: the triple count
// and the number of distinct terms per triple position.
type DatasetStats struct {
	Triples    int
	Subjects   int
	Predicates int
	Objects    int
}

// view is one version of the graph's indexes and statistics. The Graph
// wraps its current view behind a lock; a Snapshot freezes one version,
// after which no writer ever mutates its nodes (copy-on-write).
type view struct {
	// spo indexes subject → predicate → object set; pos and osp are the
	// rotations used to answer patterns with unbound subjects.
	spo map[Term]*midMap
	pos map[Term]*midMap
	osp map[Term]*midMap
	// subjN/predN/objN count the triples carrying each term in the
	// corresponding position — the O(1) cardinality statistics.
	subjN map[Term]int
	predN map[Term]int
	objN  map[Term]int
	n     int
}

func newView() view {
	return view{
		spo:   make(map[Term]*midMap),
		pos:   make(map[Term]*midMap),
		osp:   make(map[Term]*midMap),
		subjN: make(map[Term]int),
		predN: make(map[Term]int),
		objN:  make(map[Term]int),
	}
}

// Snapshot is an immutable point-in-time view of a Graph, produced in
// O(1) by Graph.Snapshot or Graph.Clone's copy-on-write machinery. All
// read methods are lock-free and safe for concurrent use; a Snapshot
// never changes, no matter what happens to the originating Graph.
type Snapshot struct {
	v     view
	taken time.Time
}

func newSnapshot(v view) *Snapshot {
	return &Snapshot{v: v, taken: time.Now()}
}

// Taken returns the time the snapshot was captured.
func (s *Snapshot) Taken() time.Time { return s.taken }

// Age returns how long ago the snapshot was captured.
func (s *Snapshot) Age() time.Duration { return time.Since(s.taken) }

// Len returns the number of triples in the snapshot.
func (s *Snapshot) Len() int { return s.v.n }

// Has reports whether the triple is present.
func (s *Snapshot) Has(t Triple) bool { return s.v.has(t) }

// ForEachMatch calls fn for every triple matching the pattern (zero Terms
// are wildcards) until fn returns false. Iteration order is unspecified.
func (s *Snapshot) ForEachMatch(sub, p, o Term, fn func(Triple) bool) {
	s.v.forEachMatch(sub, p, o, fn)
}

// Cardinality returns the exact number of triples matching the pattern in
// O(1) using the index statistics.
func (s *Snapshot) Cardinality(sub, p, o Term) int { return s.v.cardinality(sub, p, o) }

// Stats returns the snapshot's index statistics.
func (s *Snapshot) Stats() DatasetStats { return s.v.stats() }

// FirstObject returns the least object of (s, p, ·) in term order, or a
// zero Term if none exists.
func (s *Snapshot) FirstObject(sub, p Term) Term { return s.v.firstObject(sub, p) }

// Triples returns every triple in sorted order.
func (s *Snapshot) Triples() []Triple { return s.v.match(Term{}, Term{}, Term{}) }

// ---- shared read algorithms ----

func (v *view) has(t Triple) bool {
	if mid, ok := v.spo[t.Subject]; ok {
		if leaf, ok := mid.m[t.Predicate]; ok {
			_, ok := leaf.m[t.Object]
			return ok
		}
	}
	return false
}

func (v *view) forEachMatch(s, p, o Term, fn func(Triple) bool) {
	switch {
	case !s.IsZero() && !p.IsZero() && !o.IsZero():
		if v.has(T(s, p, o)) {
			fn(T(s, p, o))
		}
	case !s.IsZero() && !p.IsZero():
		if mid, ok := v.spo[s]; ok {
			if leaf, ok := mid.m[p]; ok {
				for obj := range leaf.m {
					if !fn(T(s, p, obj)) {
						return
					}
				}
			}
		}
	case !s.IsZero() && !o.IsZero():
		if mid, ok := v.osp[o]; ok {
			if leaf, ok := mid.m[s]; ok {
				for pred := range leaf.m {
					if !fn(T(s, pred, o)) {
						return
					}
				}
			}
		}
	case !p.IsZero() && !o.IsZero():
		if mid, ok := v.pos[p]; ok {
			if leaf, ok := mid.m[o]; ok {
				for subj := range leaf.m {
					if !fn(T(subj, p, o)) {
						return
					}
				}
			}
		}
	case !s.IsZero():
		if mid, ok := v.spo[s]; ok {
			for pred, leaf := range mid.m {
				for obj := range leaf.m {
					if !fn(T(s, pred, obj)) {
						return
					}
				}
			}
		}
	case !p.IsZero():
		if mid, ok := v.pos[p]; ok {
			for obj, leaf := range mid.m {
				for subj := range leaf.m {
					if !fn(T(subj, p, obj)) {
						return
					}
				}
			}
		}
	case !o.IsZero():
		if mid, ok := v.osp[o]; ok {
			for subj, leaf := range mid.m {
				for pred := range leaf.m {
					if !fn(T(subj, pred, o)) {
						return
					}
				}
			}
		}
	default:
		for subj, mid := range v.spo {
			for pred, leaf := range mid.m {
				for obj := range leaf.m {
					if !fn(T(subj, pred, obj)) {
						return
					}
				}
			}
		}
	}
}

func (v *view) match(s, p, o Term) []Triple {
	var out []Triple
	v.forEachMatch(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sortTriples(out)
	return out
}

func (v *view) cardinality(s, p, o Term) int {
	switch {
	case !s.IsZero() && !p.IsZero() && !o.IsZero():
		if v.has(T(s, p, o)) {
			return 1
		}
		return 0
	case !s.IsZero() && !p.IsZero():
		if mid, ok := v.spo[s]; ok {
			if leaf, ok := mid.m[p]; ok {
				return len(leaf.m)
			}
		}
		return 0
	case !p.IsZero() && !o.IsZero():
		if mid, ok := v.pos[p]; ok {
			if leaf, ok := mid.m[o]; ok {
				return len(leaf.m)
			}
		}
		return 0
	case !s.IsZero() && !o.IsZero():
		if mid, ok := v.osp[o]; ok {
			if leaf, ok := mid.m[s]; ok {
				return len(leaf.m)
			}
		}
		return 0
	case !s.IsZero():
		return v.subjN[s]
	case !p.IsZero():
		return v.predN[p]
	case !o.IsZero():
		return v.objN[o]
	default:
		return v.n
	}
}

func (v *view) stats() DatasetStats {
	return DatasetStats{
		Triples:    v.n,
		Subjects:   len(v.subjN),
		Predicates: len(v.predN),
		Objects:    len(v.objN),
	}
}

func (v *view) subjects(p, o Term) []Term {
	seen := make(map[Term]struct{})
	v.forEachMatch(Term{}, p, o, func(t Triple) bool {
		seen[t.Subject] = struct{}{}
		return true
	})
	return sortedTerms(seen)
}

func (v *view) objects(s, p Term) []Term {
	seen := make(map[Term]struct{})
	v.forEachMatch(s, p, Term{}, func(t Triple) bool {
		seen[t.Object] = struct{}{}
		return true
	})
	return sortedTerms(seen)
}

func (v *view) firstObject(s, p Term) Term {
	var best Term
	found := false
	v.forEachMatch(s, p, Term{}, func(t Triple) bool {
		if !found || termLess(t.Object, best) {
			best, found = t.Object, true
		}
		return true
	})
	return best
}

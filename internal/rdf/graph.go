package rdf

import (
	"fmt"
	"sort"
	"sync"
)

// Triple is an RDF statement. Subjects may be IRIs or blank nodes,
// predicates must be IRIs, objects may be any term.
type Triple struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// T is a convenience constructor for a Triple.
func T(s, p, o Term) Triple { return Triple{Subject: s, Predicate: p, Object: o} }

// String renders the triple in N-Triples syntax (without trailing newline).
func (t Triple) String() string {
	return t.Subject.String() + " " + t.Predicate.String() + " " + t.Object.String() + " ."
}

// Validate reports whether the triple is well-formed RDF.
func (t Triple) Validate() error {
	switch {
	case t.Subject.IsZero() || t.Predicate.IsZero() || t.Object.IsZero():
		return fmt.Errorf("rdf: triple has zero term: %v", t)
	case t.Subject.IsLiteral():
		return fmt.Errorf("rdf: literal subject: %v", t)
	case !t.Predicate.IsIRI():
		return fmt.Errorf("rdf: non-IRI predicate: %v", t)
	}
	return nil
}

// Graph is an in-memory RDF graph with three-way indexing (SPO, POS, OSP)
// for efficient pattern matching, per-position cardinality statistics for
// query planning, and O(1) copy-on-write snapshots (Snapshot, Clone). All
// methods are safe for concurrent use.
//
// The zero value is not ready to use; call NewGraph.
type Graph struct {
	mu sync.RWMutex
	v  view
	// gen is the current write generation. Index nodes stamped with an
	// older generation are shared with at least one Snapshot or Clone and
	// are copied (never mutated in place) the first time a write touches
	// them.
	gen uint64
	// sealed records that the current generation's nodes are shared with
	// a Snapshot or Clone; the next write bumps gen and forks the roots.
	sealed bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{v: newView()}
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v.n
}

// Snapshot returns an immutable point-in-time view of the graph in O(1).
// Snapshot reads take no locks, so an arbitrarily long read (e.g. a SPARQL
// evaluation) never blocks writers; subsequent writes to the graph copy
// the index nodes they touch instead of mutating shared state.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sealed = true
	return newSnapshot(g.v)
}

// prepWrite makes the current view privately writable: if a Snapshot or
// Clone shares the current generation, the generation advances and the
// root maps are forked. Inner index nodes fork lazily as writes touch
// them. Callers must hold g.mu.
func (g *Graph) prepWrite() {
	if !g.sealed {
		return
	}
	g.gen++
	g.sealed = false
	g.v.spo = forkRoot(g.v.spo)
	g.v.pos = forkRoot(g.v.pos)
	g.v.osp = forkRoot(g.v.osp)
	g.v.subjN = forkCounts(g.v.subjN)
	g.v.predN = forkCounts(g.v.predN)
	g.v.objN = forkCounts(g.v.objN)
}

// Add inserts a triple. It returns true if the triple was not already
// present, and an error if the triple is malformed.
func (g *Graph) Add(t Triple) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.prepWrite()
	return g.addLocked(t), nil
}

func (g *Graph) addLocked(t Triple) bool {
	if !addIdx(g.v.spo, g.gen, t.Subject, t.Predicate, t.Object) {
		return false
	}
	addIdx(g.v.pos, g.gen, t.Predicate, t.Object, t.Subject)
	addIdx(g.v.osp, g.gen, t.Object, t.Subject, t.Predicate)
	g.v.subjN[t.Subject]++
	g.v.predN[t.Predicate]++
	g.v.objN[t.Object]++
	g.v.n++
	return true
}

// MustAdd inserts a triple and panics on malformed input. It is intended
// for statically-known vocabulary construction (e.g. building the IQ model).
func (g *Graph) MustAdd(t Triple) {
	if _, err := g.Add(t); err != nil {
		panic(err)
	}
}

// AddBatch inserts all triples under a single lock acquisition — the bulk
// load path for large graphs (provenance logs, parsed files). It returns
// the number of triples actually added (duplicates are skipped); on a
// malformed triple it stops and returns the count added so far.
func (g *Graph) AddBatch(ts []Triple) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.prepWrite()
	added := 0
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return added, err
		}
		if g.addLocked(t) {
			added++
		}
	}
	return added, nil
}

// Remove deletes a triple, reporting whether it was present.
func (g *Graph) Remove(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.prepWrite()
	if !delIdx(g.v.spo, g.gen, t.Subject, t.Predicate, t.Object) {
		return false
	}
	delIdx(g.v.pos, g.gen, t.Predicate, t.Object, t.Subject)
	delIdx(g.v.osp, g.gen, t.Object, t.Subject, t.Predicate)
	decCount(g.v.subjN, t.Subject)
	decCount(g.v.predN, t.Predicate)
	decCount(g.v.objN, t.Object)
	g.v.n--
	return true
}

// Has reports whether the triple is present.
func (g *Graph) Has(t Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v.has(t)
}

// Match returns all triples matching the pattern; zero Terms act as
// wildcards. Results are returned in deterministic (sorted) order.
func (g *Graph) Match(s, p, o Term) []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v.match(s, p, o)
}

// Count returns the number of triples matching the pattern.
func (g *Graph) Count(s, p, o Term) int {
	n := 0
	g.ForEachMatch(s, p, o, func(Triple) bool { n++; return true })
	return n
}

// Cardinality returns the exact number of triples matching the pattern in
// O(1), from the index statistics — the planner-facing complement of
// Count, which walks the matches.
func (g *Graph) Cardinality(s, p, o Term) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v.cardinality(s, p, o)
}

// Stats returns the graph-level index statistics.
func (g *Graph) Stats() DatasetStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v.stats()
}

// ForEachMatch calls fn for every triple matching the pattern (zero Terms
// are wildcards) until fn returns false. Iteration order is unspecified;
// use Match for deterministic order. The graph must not be mutated from
// within fn; for reads that must coexist with writers, iterate a
// Snapshot instead.
func (g *Graph) ForEachMatch(s, p, o Term, fn func(Triple) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.v.forEachMatch(s, p, o, fn)
}

// Subjects returns the distinct subjects of triples matching (·, p, o),
// in sorted order.
func (g *Graph) Subjects(p, o Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v.subjects(p, o)
}

// Objects returns the distinct objects of triples matching (s, p, ·),
// in sorted order.
func (g *Graph) Objects(s, p Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v.objects(s, p)
}

// FirstObject returns the least object of (s, p, ·) in term order, or a
// zero Term if none exists. It is the idiom for functional properties,
// and runs as a single O(k) min-scan over the k objects.
func (g *Graph) FirstObject(s, p Term) Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v.firstObject(s, p)
}

// Triples returns a sorted snapshot of every triple in the graph.
func (g *Graph) Triples() []Triple {
	return g.Match(Term{}, Term{}, Term{})
}

// Clear removes every triple.
func (g *Graph) Clear() {
	g.mu.Lock()
	defer g.mu.Unlock()
	// Fresh maps, never shared: outstanding snapshots keep the old ones.
	g.v = newView()
	g.sealed = false
}

// Clone returns an independent copy of the graph in O(1): the copy shares
// the current index nodes copy-on-write, so writes on either side fork
// the nodes they touch and neither graph observes the other's mutations.
func (g *Graph) Clone() *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sealed = true
	return &Graph{v: g.v, gen: g.gen, sealed: true}
}

// ---- generation-tagged copy-on-write index nodes ----

// midMap is the middle level of one index rotation (e.g. predicate →
// object set under a subject). leafSet is the innermost term set. Both
// carry the write generation that owns them: a node whose gen differs
// from the graph's current gen is shared with a snapshot and is forked
// before mutation.
type midMap struct {
	gen uint64
	m   map[Term]*leafSet
}

type leafSet struct {
	gen uint64
	m   map[Term]struct{}
}

func (n *midMap) fork(gen uint64) *midMap {
	m := make(map[Term]*leafSet, len(n.m))
	for k, v := range n.m {
		m[k] = v
	}
	return &midMap{gen: gen, m: m}
}

func (n *leafSet) fork(gen uint64) *leafSet {
	m := make(map[Term]struct{}, len(n.m))
	for k := range n.m {
		m[k] = struct{}{}
	}
	return &leafSet{gen: gen, m: m}
}

func forkRoot(root map[Term]*midMap) map[Term]*midMap {
	out := make(map[Term]*midMap, len(root))
	for k, v := range root {
		out[k] = v
	}
	return out
}

func forkCounts(c map[Term]int) map[Term]int {
	out := make(map[Term]int, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

func addIdx(root map[Term]*midMap, gen uint64, a, b, c Term) bool {
	mid, ok := root[a]
	switch {
	case !ok:
		mid = &midMap{gen: gen, m: make(map[Term]*leafSet, 1)}
		root[a] = mid
	case mid.gen != gen:
		mid = mid.fork(gen)
		root[a] = mid
	}
	leaf, ok := mid.m[b]
	switch {
	case !ok:
		leaf = &leafSet{gen: gen, m: make(map[Term]struct{}, 1)}
		mid.m[b] = leaf
	case leaf.gen != gen:
		leaf = leaf.fork(gen)
		mid.m[b] = leaf
	}
	if _, ok := leaf.m[c]; ok {
		return false
	}
	leaf.m[c] = struct{}{}
	return true
}

func delIdx(root map[Term]*midMap, gen uint64, a, b, c Term) bool {
	mid, ok := root[a]
	if !ok {
		return false
	}
	leaf, ok := mid.m[b]
	if !ok {
		return false
	}
	if _, ok := leaf.m[c]; !ok {
		return false
	}
	if mid.gen != gen {
		mid = mid.fork(gen)
		root[a] = mid
	}
	if leaf = mid.m[b]; leaf.gen != gen {
		leaf = leaf.fork(gen)
		mid.m[b] = leaf
	}
	delete(leaf.m, c)
	if len(leaf.m) == 0 {
		delete(mid.m, b)
		if len(mid.m) == 0 {
			delete(root, a)
		}
	}
	return true
}

func decCount(c map[Term]int, t Term) {
	if c[t] <= 1 {
		delete(c, t)
	} else {
		c[t]--
	}
}

func termLess(a, b Term) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.value != b.value {
		return a.value < b.value
	}
	if a.datatype != b.datatype {
		return a.datatype < b.datatype
	}
	return a.lang < b.lang
}

// CompareTerms orders terms by kind, then value, datatype and language tag.
// It returns -1, 0, or 1.
func CompareTerms(a, b Term) int {
	switch {
	case a == b:
		return 0
	case termLess(a, b):
		return -1
	default:
		return 1
	}
}

func sortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.Subject != b.Subject {
			return termLess(a.Subject, b.Subject)
		}
		if a.Predicate != b.Predicate {
			return termLess(a.Predicate, b.Predicate)
		}
		return termLess(a.Object, b.Object)
	})
}

func sortedTerms(set map[Term]struct{}) []Term {
	out := make([]Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return termLess(out[i], out[j]) })
	return out
}

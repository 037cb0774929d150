package rdf

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
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

// Validate reports whether the triple is well-formed RDF that ParseTriple
// reads back from its N-Triples rendering (String), term for term — what
// a durable store needs to recover what it wrote.
func (t Triple) Validate() error {
	switch {
	case t.Subject.IsZero() || t.Predicate.IsZero() || t.Object.IsZero():
		return fmt.Errorf("rdf: triple has zero term: %v", t)
	case t.Subject.IsLiteral():
		return fmt.Errorf("rdf: literal subject: %v", t)
	case !t.Predicate.IsIRI():
		return fmt.Errorf("rdf: non-IRI predicate: %v", t)
	}
	for _, term := range [3]Term{t.Subject, t.Predicate, t.Object} {
		if err := term.unreadable(); err != nil {
			return fmt.Errorf("rdf: %w: %v", err, t)
		}
	}
	return nil
}

// unreadable says why ParseTriple could not read the term back from its
// rendering, or returns nil. The parser ends an IRI (a literal's datatype
// IRI too) at its first '>', a blank node label at its first space or
// tab, and a language tag at its first space, tab or '.'. Spaces inside
// IRIs read back, so they stay allowed.
func (t Term) unreadable() error {
	switch t.kind {
	case KindIRI:
		if t.value == "" || strings.IndexByte(t.value, '>') >= 0 {
			return fmt.Errorf("IRI %q is empty or contains '>'", t.value)
		}
	case KindBlank:
		if t.value == "" || strings.ContainsAny(t.value, " \t") {
			return fmt.Errorf("blank node label %q is empty or contains a space or tab", t.value)
		}
	case KindLiteral:
		if t.lang != "" && strings.ContainsAny(t.lang, " \t.") {
			return fmt.Errorf("language tag %q contains a space, tab or '.'", t.lang)
		}
		if t.lang == "" && strings.IndexByte(t.datatype, '>') >= 0 {
			return fmt.Errorf("datatype IRI %q contains '>'", t.datatype)
		}
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
// three root maps are forked. Inner index nodes, which carry the per-term
// counts, fork lazily as writes touch them. Callers must hold g.mu.
func (g *Graph) prepWrite() {
	if !g.sealed {
		return
	}
	g.gen++
	g.sealed = false
	g.v.spo = maps.Clone(g.v.spo)
	g.v.pos = maps.Clone(g.v.pos)
	g.v.osp = maps.Clone(g.v.osp)
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

// smallNode is the most entries an index node keeps in a slice, found by
// linear scan; a node that grows past it switches to a map for good.
// Almost every leaf of an annotation or provenance graph holds one term:
// as a slice it costs one term, as a Go map several hundred bytes.
const smallNode = 8

// midMap is the middle level of one index rotation (e.g. predicate →
// object set under a subject) and leafSet the innermost term set. Each
// keeps its entries in s while small and in m (s nil) above smallNode.
// Both carry the write generation that owns them: a node whose gen
// differs from the graph's current gen is shared with a snapshot and is
// forked before mutation. A midMap also counts the triples under its
// root key — the O(1) per-term cardinality statistic.
type midMap struct {
	gen uint64
	n   int
	s   []midEntry
	m   map[Term]*leafSet
}

type midEntry struct {
	key  Term
	leaf *leafSet
}

type leafSet struct {
	gen uint64
	s   []Term
	m   map[Term]struct{}
}

// fork copies the node for generation gen. The slice gets a fresh
// backing array, so the shared node never sees a later append or
// swap-remove.
func (n *midMap) fork(gen uint64) *midMap {
	if n.m != nil {
		return &midMap{gen: gen, n: n.n, m: maps.Clone(n.m)}
	}
	return &midMap{gen: gen, n: n.n, s: slices.Clone(n.s)}
}

func (l *leafSet) fork(gen uint64) *leafSet {
	if l.m != nil {
		return &leafSet{gen: gen, m: maps.Clone(l.m)}
	}
	return &leafSet{gen: gen, s: slices.Clone(l.s)}
}

func (n *midMap) get(k Term) (*leafSet, bool) {
	if n.m != nil {
		leaf, ok := n.m[k]
		return leaf, ok
	}
	for _, e := range n.s {
		if e.key == k {
			return e.leaf, true
		}
	}
	return nil, false
}

func (n *midMap) has(b, c Term) bool {
	leaf, ok := n.get(b)
	return ok && leaf.has(c)
}

// each calls fn for every entry until fn returns false, and reports
// whether it ran to the end.
func (n *midMap) each(fn func(Term, *leafSet) bool) bool {
	if n.m != nil {
		for k, leaf := range n.m {
			if !fn(k, leaf) {
				return false
			}
		}
		return true
	}
	for _, e := range n.s {
		if !fn(e.key, e.leaf) {
			return false
		}
	}
	return true
}

// writableLeaf returns the leaf under k owned by gen: forked if shared,
// created empty if absent. n itself must be owned by gen.
func (n *midMap) writableLeaf(k Term, gen uint64) *leafSet {
	if n.m != nil {
		leaf, ok := n.m[k]
		switch {
		case !ok:
			leaf = &leafSet{gen: gen}
			n.m[k] = leaf
		case leaf.gen != gen:
			leaf = leaf.fork(gen)
			n.m[k] = leaf
		}
		return leaf
	}
	for i := range n.s {
		if e := &n.s[i]; e.key == k {
			if e.leaf.gen != gen {
				e.leaf = e.leaf.fork(gen)
			}
			return e.leaf
		}
	}
	leaf := &leafSet{gen: gen}
	if len(n.s) < smallNode {
		n.s = append(n.s, midEntry{k, leaf})
		return leaf
	}
	n.m = make(map[Term]*leafSet, smallNode+1)
	for _, e := range n.s {
		n.m[e.key] = e.leaf
	}
	n.m[k], n.s = leaf, nil
	return leaf
}

// del removes the entry under k, which must be present.
func (n *midMap) del(k Term) {
	if n.m != nil {
		delete(n.m, k)
		return
	}
	last := len(n.s) - 1
	for i, e := range n.s {
		if e.key == k {
			n.s[i] = n.s[last]
			n.s[last] = midEntry{}
			n.s = n.s[:last]
			return
		}
	}
}

func (l *leafSet) size() int {
	if l.m != nil {
		return len(l.m)
	}
	return len(l.s)
}

func (l *leafSet) has(t Term) bool {
	if l.m != nil {
		_, ok := l.m[t]
		return ok
	}
	return slices.Contains(l.s, t)
}

// each calls fn for every term until fn returns false, and reports
// whether it ran to the end.
func (l *leafSet) each(fn func(Term) bool) bool {
	if l.m != nil {
		for t := range l.m {
			if !fn(t) {
				return false
			}
		}
		return true
	}
	for _, t := range l.s {
		if !fn(t) {
			return false
		}
	}
	return true
}

// add inserts t, which must be absent.
func (l *leafSet) add(t Term) {
	switch {
	case l.m != nil:
		l.m[t] = struct{}{}
	case len(l.s) < smallNode:
		l.s = append(l.s, t)
	default:
		l.m = make(map[Term]struct{}, smallNode+1)
		for _, x := range l.s {
			l.m[x] = struct{}{}
		}
		l.m[t], l.s = struct{}{}, nil
	}
}

// del removes t, which must be present.
func (l *leafSet) del(t Term) {
	if l.m != nil {
		delete(l.m, t)
		return
	}
	last := len(l.s) - 1
	i := slices.Index(l.s, t)
	l.s[i] = l.s[last]
	l.s[last] = Term{}
	l.s = l.s[:last]
}

// addIdx inserts (a, b, c) into one index rotation, forking the nodes on
// its path that gen does not own; it reports false, forking nothing, if
// the entry is already present.
func addIdx(root map[Term]*midMap, gen uint64, a, b, c Term) bool {
	mid, ok := root[a]
	switch {
	case !ok:
		mid = &midMap{gen: gen}
		root[a] = mid
	case mid.has(b, c):
		return false
	case mid.gen != gen:
		mid = mid.fork(gen)
		root[a] = mid
	}
	mid.writableLeaf(b, gen).add(c)
	mid.n++
	return true
}

func delIdx(root map[Term]*midMap, gen uint64, a, b, c Term) bool {
	mid, ok := root[a]
	if !ok || !mid.has(b, c) {
		return false
	}
	if mid.n == 1 {
		delete(root, a)
		return true
	}
	if mid.gen != gen {
		mid = mid.fork(gen)
		root[a] = mid
	}
	if leaf, _ := mid.get(b); leaf.size() == 1 {
		mid.del(b)
	} else {
		mid.writableLeaf(b, gen).del(c)
	}
	mid.n--
	return true
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

package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// The copy-on-write index is checked against an independent model: each
// graph, clone and snapshot handle carries a plain set of triples,
// deep-copied wherever the graph shares nodes. The alphabet is small
// enough that index nodes fill past smallNode and drain again, so both
// node layouts, the switch between them and removals from each are
// exercised.
var (
	cowSubjects   = cowTerms(func(i int) Term { return IRI(fmt.Sprintf("urn:s%d", i)) }, 10)
	cowPredicates = cowTerms(func(i int) Term { return IRI(fmt.Sprintf("urn:p%d", i)) }, 10)
	cowObjects    = append(cowTerms(func(i int) Term { return Integer(int64(i)) }, 6),
		IRI("urn:s0"), IRI("urn:s1"), IRI("urn:p0"), Literal("x"),
		LangLiteral("x", "en"), Blank("b0"))
)

func cowTerms(f func(int) Term, n int) []Term {
	out := make([]Term, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// cowModel is the reference for one handle: a set of triples.
type cowModel map[Triple]struct{}

func (m cowModel) clone() cowModel {
	out := make(cowModel, len(m))
	for t := range m {
		out[t] = struct{}{}
	}
	return out
}

func (m cowModel) sorted() []Triple {
	out := make([]Triple, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sortTriples(out)
	return out
}

// reader is what a Graph and a Snapshot both answer.
type reader interface {
	Dataset
	Has(Triple) bool
	Triples() []Triple
	FirstObject(s, p Term) Term
}

// checkModel compares every read of d with the model m.
func checkModel(d reader, m cowModel) error {
	want := m.sorted()
	if got := d.Triples(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		return fmt.Errorf("Triples: got %d %v, want %d %v", len(got), got, len(want), want)
	}
	if d.Len() != len(m) {
		return fmt.Errorf("Len = %d, want %d", d.Len(), len(m))
	}
	// Per-pattern counts for every shape with one or two bound
	// positions, and the distinct terms per position.
	type pair struct{ a, b Term }
	sp, po, so := map[pair]int{}, map[pair]int{}, map[pair]int{}
	sN, pN, oN := map[Term]int{}, map[Term]int{}, map[Term]int{}
	first := map[pair]Term{}
	for t := range m {
		sp[pair{t.Subject, t.Predicate}]++
		po[pair{t.Predicate, t.Object}]++
		so[pair{t.Subject, t.Object}]++
		sN[t.Subject]++
		pN[t.Predicate]++
		oN[t.Object]++
		k := pair{t.Subject, t.Predicate}
		if f, ok := first[k]; !ok || termLess(t.Object, f) {
			first[k] = t.Object
		}
	}
	if got, want := d.Stats(), (DatasetStats{len(m), len(sN), len(pN), len(oN)}); got != want {
		return fmt.Errorf("Stats = %+v, want %+v", got, want)
	}
	if got := d.Cardinality(Term{}, Term{}, Term{}); got != len(m) {
		return fmt.Errorf("Cardinality(·,·,·) = %d, want %d", got, len(m))
	}
	subjects := append(append([]Term(nil), cowSubjects...), Blank("b0"))
	for _, s := range subjects {
		if got := d.Cardinality(s, Term{}, Term{}); got != sN[s] {
			return fmt.Errorf("Cardinality(%v,·,·) = %d, want %d", s, got, sN[s])
		}
		for _, p := range cowPredicates {
			k := pair{s, p}
			if got := d.Cardinality(s, p, Term{}); got != sp[k] {
				return fmt.Errorf("Cardinality(%v,%v,·) = %d, want %d", s, p, got, sp[k])
			}
			if got := d.FirstObject(s, p); got != first[k] {
				return fmt.Errorf("FirstObject(%v,%v) = %v, want %v", s, p, got, first[k])
			}
		}
		for _, o := range cowObjects {
			if got, want := d.Cardinality(s, Term{}, o), so[pair{s, o}]; got != want {
				return fmt.Errorf("Cardinality(%v,·,%v) = %d, want %d", s, o, got, want)
			}
		}
	}
	for _, p := range cowPredicates {
		if got := d.Cardinality(Term{}, p, Term{}); got != pN[p] {
			return fmt.Errorf("Cardinality(·,%v,·) = %d, want %d", p, got, pN[p])
		}
		for _, o := range cowObjects {
			if got, want := d.Cardinality(Term{}, p, o), po[pair{p, o}]; got != want {
				return fmt.Errorf("Cardinality(·,%v,%v) = %d, want %d", p, o, got, want)
			}
		}
	}
	for _, o := range cowObjects {
		if got := d.Cardinality(Term{}, Term{}, o); got != oN[o] {
			return fmt.Errorf("Cardinality(·,·,%v) = %d, want %d", o, got, oN[o])
		}
	}
	for _, t := range want {
		if !d.Has(t) || d.Cardinality(t.Subject, t.Predicate, t.Object) != 1 {
			return fmt.Errorf("Has/Cardinality miss present %v", t)
		}
	}
	absent := T(cowSubjects[0], cowPredicates[0], Literal("absent"))
	if d.Has(absent) || d.Cardinality(absent.Subject, absent.Predicate, absent.Object) != 0 {
		return fmt.Errorf("Has/Cardinality find absent %v", absent)
	}
	return nil
}

// cowHandles bounds the live graphs and the snapshots a program keeps;
// past it, a new one replaces the oldest.
const cowHandles = 6

// runGraphCOWProgram interprets prog as a sequence of graph operations
// over live graphs (the first, and clones) and snapshots, checking every
// handle against its model after every step.
func runGraphCOWProgram(tb testing.TB, prog []byte) {
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	triple := func() Triple {
		return T(cowSubjects[next()%len(cowSubjects)],
			cowPredicates[next()%len(cowPredicates)],
			cowObjects[next()%len(cowObjects)])
	}
	graphs, gModels := []*Graph{NewGraph()}, []cowModel{{}}
	var snaps []*Snapshot
	var sModels []cowModel
	for step := 0; pos < len(prog); step++ {
		op, h := next()%7, next()%len(graphs)
		g, m := graphs[h], gModels[h]
		switch op {
		case 0:
			t := triple()
			if added, err := g.Add(t); err != nil {
				tb.Fatal(err)
			} else if _, had := m[t]; added == had {
				tb.Fatalf("step %d: Add(%v) = %v with the triple present: %v", step, t, added, had)
			}
			m[t] = struct{}{}
		case 1: // a line of triples along one position: fills a node past smallNode
			t, n, axis, start := triple(), next()%13, next()%3, next()
			batch := make([]Triple, n)
			for i := range batch {
				u := t
				switch axis {
				case 0:
					u.Subject = cowSubjects[(start+i)%len(cowSubjects)]
				case 1:
					u.Predicate = cowPredicates[(start+i)%len(cowPredicates)]
				default:
					u.Object = cowObjects[(start+i)%len(cowObjects)]
				}
				batch[i] = u
			}
			fresh := 0
			for _, u := range batch {
				if _, had := m[u]; !had {
					fresh++
					m[u] = struct{}{}
				}
			}
			if added, err := g.AddBatch(batch); err != nil || added != fresh {
				tb.Fatalf("step %d: AddBatch = (%d, %v), want (%d, nil)", step, added, err, fresh)
			}
		case 2: // removes a run of present triples, or an absent one
			ts := m.sorted()
			if len(ts) == 0 {
				if g.Remove(triple()) {
					tb.Fatalf("step %d: Remove on an empty graph reported a triple", step)
				}
				break
			}
			start, n := next()%len(ts), 1+next()%10
			for _, t := range ts[start:min(start+n, len(ts))] {
				if !g.Remove(t) {
					tb.Fatalf("step %d: Remove(%v) = false for a present triple", step, t)
				}
				delete(m, t)
			}
		case 3:
			if len(snaps) == cowHandles {
				snaps, sModels = snaps[1:], sModels[1:]
			}
			snaps, sModels = append(snaps, g.Snapshot()), append(sModels, m.clone())
		case 4:
			if len(graphs) == cowHandles {
				graphs, gModels = graphs[1:], gModels[1:]
			}
			graphs, gModels = append(graphs, g.Clone()), append(gModels, m.clone())
		case 5:
			g.Clear()
			gModels[h] = cowModel{}
		case 6:
			t := triple()
			_, had := m[t]
			if g.Remove(t) != had {
				tb.Fatalf("step %d: Remove(%v) disagrees with the model (present: %v)", step, t, had)
			}
			delete(m, t)
		}
		for i, g := range graphs {
			if err := checkModel(g, gModels[i]); err != nil {
				tb.Fatalf("step %d (op %d on graph %d): graph %d: %v", step, op, h, i, err)
			}
		}
		for i, s := range snaps {
			if err := checkModel(s, sModels[i]); err != nil {
				tb.Fatalf("step %d (op %d on graph %d): snapshot %d: %v", step, op, h, i, err)
			}
		}
	}
}

// Property: however snapshots, clones, clears and writes interleave,
// every graph and snapshot reads exactly as an independent deep copy
// would, through every read path.
func TestGraphCopyOnWriteProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 400)
		rng.Read(prog)
		runGraphCOWProgram(t, prog)
	}
}

func FuzzGraphCopyOnWrite(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 12, 2, 3, 0, 1, 0, 1, 0, 0, 0, 9, 0})
	f.Add([]byte{1, 0, 1, 2, 3, 12, 1, 4, 0, 1, 0, 0, 0, 0, 0, 12, 0, 2, 0, 0, 10})
	f.Add([]byte{4, 0, 1, 0, 3, 4, 5, 12, 1, 3, 1, 2, 1, 0, 0, 5, 1, 5, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runGraphCOWProgram(t, prog)
	})
}

// annotationTriples returns n items shaped as annotstore's Put writes
// them: the item's containsEvidence link to a per-(item, type) evidence
// node, and the node's type, value, time stamp and computing function.
func annotationTriples(n int) []Triple {
	const q = "http://qurator.org/iq#"
	contains, value := IRI(q+"containsEvidence"), IRI(q+"evidenceValue")
	stamp, by, typ := IRI(q+"recordedAt"), IRI(q+"computedBy"), IRI(RDFType)
	types := []Term{IRI(q + "HitRatio"), IRI(q + "MassCoverage"), IRI(q + "Masses"), IRI(q + "PeptidesCount")}
	fns := []Term{IRI(q + "ImprintOutputAnnotator"), IRI(q + "UniprotAnnotator")}
	ts := make([]Triple, 0, 5*n)
	for i := 0; i < n; i++ {
		item := IRI(fmt.Sprintf("urn:lsid:test.org:hit:%d", i/len(types)))
		et := types[i%len(types)]
		node := IRI(item.Value() + "#evidence-" + et.Value()[len(q):])
		ts = append(ts,
			T(item, contains, node),
			T(node, typ, et),
			T(node, value, Double(float64(i)*0.37)),
			T(node, stamp, Literal(fmt.Sprintf("2026-01-02T03:04:05.%09dZ", i))),
			T(node, by, fns[i%len(fns)]))
	}
	return ts
}

// The index costs at most 1 KiB of heap per annotation-shaped triple
// (terms excluded: they are allocated before the graph is built).
func TestGraphBytesPerTriple(t *testing.T) {
	ts := annotationTriples(20000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := NewGraph()
	if _, err := g.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perTriple := float64(after.HeapAlloc-before.HeapAlloc) / float64(g.Len())
	runtime.KeepAlive(g)
	t.Logf("%d triples, %.0f heap bytes per triple", g.Len(), perTriple)
	if perTriple > 1024 {
		t.Errorf("graph index holds %.0f heap bytes per annotation-shaped triple, want ≤ 1024", perTriple)
	}
}

package evidence

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qurator/internal/rdf"
)

func incItem(i int) Item { return rdf.IRI(fmt.Sprintf("urn:lsid:x.org:ns:%d", i)) }

func TestRemoveFirst(t *testing.T) {
	key := rdf.IRI("urn:k")
	m := NewMap(incItem(0), incItem(1), incItem(2), incItem(3), incItem(4))
	for i := 0; i < 5; i++ {
		m.Set(incItem(i), key, Float(float64(i)))
	}

	removed := m.RemoveFirst(2)
	if len(removed) != 2 || removed[0] != incItem(0) || removed[1] != incItem(1) {
		t.Fatalf("removed = %v, want the two oldest items", removed)
	}
	want := []Item{incItem(2), incItem(3), incItem(4)}
	got := m.Items()
	if len(got) != len(want) {
		t.Fatalf("items = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("items[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if m.HasItem(incItem(0)) || m.Has(incItem(1), key) {
		t.Error("evicted items still present")
	}
	// Index re-based: appends and positional lookups stay consistent.
	m.AddItem(incItem(9))
	if m.ItemAt(0) != incItem(2) || m.ItemAt(3) != incItem(9) {
		t.Errorf("order after RemoveFirst+AddItem = %v", m.Items())
	}

	if r := m.RemoveFirst(0); r != nil {
		t.Errorf("RemoveFirst(0) = %v, want nil", r)
	}
	if r := m.RemoveFirst(100); len(r) != 4 {
		t.Errorf("RemoveFirst(overlarge) removed %d, want 4", len(r))
	}
	if m.Len() != 0 {
		t.Errorf("Len after draining = %d", m.Len())
	}
}

func TestRemoveItem(t *testing.T) {
	key := rdf.IRI("urn:k")
	m := NewMap(incItem(0), incItem(1), incItem(2), incItem(3))
	for i := 0; i < 4; i++ {
		m.Set(incItem(i), key, Float(float64(i)))
	}
	if !m.RemoveItem(incItem(1)) {
		t.Fatal("RemoveItem(present) = false")
	}
	if m.RemoveItem(incItem(1)) {
		t.Fatal("RemoveItem(absent) = true")
	}
	want := []Item{incItem(0), incItem(2), incItem(3)}
	got := m.Items()
	if len(got) != len(want) {
		t.Fatalf("items = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("items[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Index stays consistent: lookups and later appends still work.
	if m.Has(incItem(1), key) {
		t.Error("removed item still has evidence")
	}
	if v := m.Get(incItem(3), key); !v.Equal(Float(3)) {
		t.Errorf("Get after removal = %v", v)
	}
	m.AddItem(incItem(4))
	if got := m.Items(); got[len(got)-1] != incItem(4) {
		t.Errorf("append after removal = %v", got)
	}
	// Re-adding a removed item appends it at the end with no stale row.
	m.AddItem(incItem(1))
	if m.Has(incItem(1), key) {
		t.Error("re-added item resurrected old evidence")
	}
}

func TestSetRow(t *testing.T) {
	k1, k2 := rdf.IRI("urn:k1"), rdf.IRI("urn:k2")
	m := NewMap()
	m.SetRow(incItem(0), map[Key]Value{k1: Float(1), k2: Null})
	if !m.HasItem(incItem(0)) || !m.Has(incItem(0), k1) {
		t.Fatal("SetRow did not append item/evidence")
	}
	if m.Has(incItem(0), k2) {
		t.Error("SetRow stored a Null value")
	}
}

// Key churn cannot grow the column list. A 16-item window slides over
// 10k items that each carry a fresh key (plus one shared key), so at most
// 17 keys are live at once; the map must hold no more columns than that,
// whichever operation evicts the old evidence. A clone taken at every
// fire keeps the evicted columns reachable, as a fired window does.
func TestColumnLifetime(t *testing.T) {
	const window, items = 16, 10000
	evict := map[string]func(m *Map, r *refMap, it Item){
		"RemoveFirst": func(m *Map, r *refMap, it Item) { m.RemoveFirst(1) },
		"RemoveItem":  func(m *Map, r *refMap, it Item) { m.RemoveItem(it) },
		"SetNull": func(m *Map, r *refMap, it Item) {
			for k := range r.rows[it] {
				m.Set(it, k, Null)
			}
			if len(m.cols) > window+1 {
				t.Fatalf("SetNull: %d columns after nulling the evicted item's values, want ≤ %d", len(m.cols), window+1)
			}
			m.RemoveItem(it)
		},
	}
	for name, evict := range evict {
		m, r := NewMap(), newRef()
		var fired *Map
		var firedRef *refMap
		for i := 0; i < items; i++ {
			it := incItem(i)
			row := map[Key]Value{hrKey: Float(float64(i)), rdf.IRI(fmt.Sprintf("urn:key:%d", i)): Int(int64(i))}
			m.SetRow(it, row)
			for k, v := range row {
				r.set(it, k, v)
			}
			if m.Len() > window {
				old := r.order[0]
				evict(m, r, old)
				r.remove(old)
			}
			if len(m.cols) > window+1 {
				t.Fatalf("%s, item %d: %d columns, want ≤ %d", name, i, len(m.cols), window+1)
			}
			if got, want := m.Keys(), r.keys(); !slices.Equal(got, want) {
				t.Fatalf("%s, item %d: Keys() = %v, want %v", name, i, got, want)
			}
			if i%window == 0 {
				if fired != nil && !bytes.Equal(canonical(fired), firedRef.canonical()) {
					t.Fatalf("%s, item %d: the previous fire's clone changed", name, i)
				}
				fired, firedRef = m.Clone(), r.clone()
			}
		}
	}
}

// TestAccumulatorMatchesComputeStats is the incremental/batch agreement
// law: an Accumulator over any prefix-with-evictions sequence agrees with
// ComputeStats over the surviving values.
func TestAccumulatorMatchesComputeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var acc Accumulator
		var live []float64
		n := 5 + rng.Intn(200)
		for i := 0; i < n; i++ {
			// Mix additions with front evictions, as a sliding window does.
			if len(live) > 0 && rng.Float64() < 0.3 {
				acc.Remove(live[0])
				live = live[1:]
			}
			v := rng.NormFloat64()*25 + 50
			acc.Add(v)
			live = append(live, v)

			want := ComputeStats(live)
			if acc.N() != want.N {
				t.Fatalf("trial %d: N = %d, want %d", trial, acc.N(), want.N)
			}
			if !approxEq(acc.Mean(), want.Mean) || !approxEq(acc.StdDev(), want.StdDev) {
				t.Fatalf("trial %d: acc = (%g, %g), want (%g, %g)",
					trial, acc.Mean(), acc.StdDev(), want.Mean, want.StdDev)
			}
			lo, hi := acc.Thresholds()
			if !approxEq(lo, want.Mean-want.StdDev) || !approxEq(hi, want.Mean+want.StdDev) {
				t.Fatalf("trial %d: thresholds (%g, %g) disagree with batch", trial, lo, hi)
			}
		}
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var acc Accumulator
	if acc.N() != 0 || acc.Mean() != 0 || acc.StdDev() != 0 {
		t.Fatal("zero accumulator not empty")
	}
	acc.Add(7)
	if acc.N() != 1 || acc.Mean() != 7 || acc.StdDev() != 0 {
		t.Fatalf("single value: n=%d mean=%g sd=%g", acc.N(), acc.Mean(), acc.StdDev())
	}
	acc.Remove(7)
	if acc.N() != 0 || acc.Mean() != 0 || acc.StdDev() != 0 {
		t.Fatal("remove to empty did not reset")
	}
	acc.Remove(1) // removing from empty is a no-op
	if acc.N() != 0 {
		t.Fatal("remove on empty changed state")
	}
}

func approxEq(a, b float64) bool {
	const tol = 1e-9
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

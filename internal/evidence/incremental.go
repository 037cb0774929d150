package evidence

import (
	"math"
	"slices"
)

// This file holds the incremental primitives the streaming enactor
// (internal/stream) builds on: in-place item removal and row append on a
// live Amap (so sliding windows evolve without rebuilding the map), and a
// Welford mean/variance accumulator (so avg±stddev classifier thresholds
// update in O(1) per item instead of a full O(n) recompute).

// RemoveItem deletes an item and its evidence from the map in place,
// preserving the order of the remaining items. It reports whether the
// item was present. Removal is O(n) in the number of trailing items (the
// index is re-based); evicting from the front of a window is therefore
// linear in the window size, not in the stream length.
func (m *Map) RemoveItem(it Item) bool {
	pos, ok := m.index[it]
	if !ok {
		return false
	}
	m.own()
	m.ownItems()
	m.order = slices.Delete(m.order, pos, pos+1)
	delete(m.index, it)
	for i := pos; i < len(m.order); i++ {
		m.index[m.order[i]] = i
	}
	for j := range m.cols {
		c := &m.cols[j]
		if pos >= c.span() {
			continue
		}
		k, ok := pos, true
		if c.pos != nil {
			k, ok = slices.BinarySearch(c.pos, pos)
		}
		if ok && !c.vals[k].IsNull() {
			c.n--
		}
		if c.n == 0 {
			continue
		}
		m.ownCol(j)
		if c.pos != nil {
			for x := k; x < len(c.pos); x++ {
				c.pos[x]--
			}
		}
		if ok {
			c.vals = slices.Delete(c.vals, k, k+1)
			if c.pos != nil {
				c.pos = slices.Delete(c.pos, k, k+1)
			}
		}
	}
	m.dropEmpty()
	return true
}

// RemoveFirst removes the n oldest items (the order prefix) and their
// evidence in one pass, returning the removed items in order. It is the
// ordered-eviction API for sliding windows: one call is O(map size)
// total, where evicting the prefix via n RemoveItem calls would re-base
// the index n times (O(n · map size)). On a clone it copies only the
// surviving item order and the sparse columns, whose positions all move,
// and reslices borrowed dense columns without copying them, so a
// tumbling window over dense evidence copies no evidence.
func (m *Map) RemoveFirst(n int) []Item {
	if n <= 0 {
		return nil
	}
	if n > len(m.order) {
		n = len(m.order)
	}
	removed := append([]Item(nil), m.order[:n]...)
	m.own()
	if m.itemsOwned {
		for _, it := range removed {
			delete(m.index, it)
		}
		m.order = slices.Delete(m.order, 0, n)
	} else {
		// Copy only the surviving suffix: a tumbling window evicts every
		// item, and copying the order just to drop it would be wasted work.
		size := len(m.order)
		m.order = append(make([]Item, 0, size), m.order[n:]...)
		m.index = make(map[Item]int, size)
		m.itemsOwned = true
	}
	for i, it := range m.order {
		m.index[it] = i
	}
	for j := range m.cols {
		c := &m.cols[j]
		if c.pos != nil {
			// A sparse column's positions all move, so it is rewritten.
			cut, _ := slices.BinarySearch(c.pos, n)
			if c.n -= cut; c.n > 0 {
				m.ownCol(j)
				c.pos = slices.Delete(c.pos, 0, cut)
				c.vals = slices.Delete(c.vals, 0, cut)
				for x := range c.pos {
					c.pos[x] -= n
				}
			}
			continue
		}
		cut := min(n, len(c.vals))
		for _, v := range c.vals[:cut] {
			if !v.IsNull() {
				c.n--
			}
		}
		if c.owned {
			c.vals = slices.Delete(c.vals, 0, cut)
		} else {
			c.vals = c.vals[cut:]
		}
	}
	m.dropEmpty()
	return removed
}

// SetRow appends an item together with its evidence row in one call — the
// streaming append: a live window Amap grows one arriving item at a time
// without rebuilding. Null values are skipped.
func (m *Map) SetRow(it Item, row map[Key]Value) {
	m.AddItem(it)
	i := m.index[it]
	for k, v := range row {
		if v.IsNull() {
			continue
		}
		m.setAt(i, k, v)
	}
}

// Accumulator maintains the running mean and (population) variance of a
// numeric evidence column using Welford's algorithm, extended with the
// standard downdate so that values can also be removed — both in O(1).
// It is the incremental counterpart of ComputeStats: a window's
// avg±stddev classifier thresholds stay current as items enter and leave
// without rescanning the window.
//
// The zero value is an empty accumulator ready for use. Accumulator is
// not safe for concurrent use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	// tainted records that a Remove drove m2 negative — the tell-tale of
	// accumulated floating-point drift after many add/remove cycles. A
	// tainted accumulator still answers (its m2 was clamped to 0), but the
	// owner should rebuild it from ground truth at the next opportunity;
	// the streaming windower does exactly that at its next fire.
	tainted bool
}

// Add folds one value into the accumulator.
func (a *Accumulator) Add(v float64) {
	a.n++
	d := v - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (v - a.mean)
}

// Remove undoes one previous Add of v (sliding-window eviction). Removing
// a value that was never added yields undefined statistics, as with any
// mean/variance downdate.
func (a *Accumulator) Remove(v float64) {
	switch {
	case a.n <= 0:
		return
	case a.n == 1:
		*a = Accumulator{}
		return
	}
	prevMean := (float64(a.n)*a.mean - v) / float64(a.n-1)
	a.m2 -= (v - a.mean) * (v - prevMean)
	if a.m2 < 0 {
		a.m2 = 0 // guard against floating-point drift
		a.tainted = true
	}
	a.mean = prevMean
	a.n--
}

// Tainted reports whether floating-point drift was detected (a Remove
// drove the running sum of squares negative). Statistics from a tainted
// accumulator are clamped best-effort values; rebuild from the underlying
// data to clear the flag.
func (a *Accumulator) Tainted() bool { return a.tainted }

// N returns the number of values currently accumulated.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.mean
}

// StdDev returns the running population standard deviation, matching
// ComputeStats (0 when empty).
func (a *Accumulator) StdDev() float64 {
	if a.n == 0 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// Thresholds returns the paper's §5.1 classifier cut points over the
// accumulated distribution: (mean − stddev, mean + stddev).
func (a *Accumulator) Thresholds() (lo, hi float64) {
	sd := a.StdDev()
	return a.Mean() - sd, a.Mean() + sd
}

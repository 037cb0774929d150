package evidence

import (
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"qurator/internal/rdf"
)

// Item identifies a data item; it is an RDF term, typically an
// LSID-wrapped URI.
type Item = rdf.Term

// Key identifies a column of the annotation map: an evidence-type IRI
// (e.g. q:HitRatio), a QA tag IRI (e.g. q:HR_MC with syntactic type
// score), or a classification-model IRI (e.g. q:PIScoreClassification).
type Key = rdf.Term

// Map is an annotation map: an ordered collection of data items, each
// carrying evidence values keyed by evidence type / tag. The item order
// is significant — data sets in the running example are ranked protein
// identification lists — and is preserved by all operations.
//
// The map is stored by column: one column of values per key. A quality
// assertion augments the map with one column keyed by its tag (paper
// §4.1), so adding it rewrites none of the existing evidence. The layout
// is tuned for dense keys — most items carry most keys, as the outputs of
// annotators and QAs over a data set do — where a column is a plain
// slice indexed by item position. A key that only a few items carry is
// kept sparse (its values and their positions), so a map with many such
// keys costs what its stored values cost, not items × keys. An access
// costs one hash lookup for the item and a scan of a few column keys (a
// second lookup once the map has many keys).
//
// Clone is O(1) and copy-on-write at two levels (the same ownership model
// as rdf.Graph's Clone): a clone shares the original's storage until
// either side first writes; that write copies only the column headers,
// and then each column only when it is first written. A read-only hop
// therefore copies nothing, a QA copies the headers and adds its tag
// column, and an added or removed item copies the item order.
//
// Map is not safe for concurrent mutation; operators receive and return
// maps by value-semantics methods (Clone, Project, Merge). Cloning one
// map, merging it into another, and reading it, from several goroutines
// at once is safe.
type Map struct {
	order []Item
	index map[Item]int
	cols  []column
	// byKey maps each column key to its index in cols once there are more
	// than scanCols columns; below that it is nil and lookups scan.
	byKey map[Key]int
	// itemsOwned and keysOwned report that order and index, and byKey,
	// belong to this handle alone; writes copy them first while unset.
	itemsOwned, keysOwned bool
	// shared is set once the column headers above are reachable from
	// another handle (a clone, or the map a clone was taken from); every
	// handle over one header slice points at the same flag. Writers call
	// own while it is set, then hold a fresh flag. It is atomic because a
	// cached map is cloned, and merged from, by several goroutines at
	// once.
	shared *atomic.Bool
}

// scanCols is the column count up to which a key lookup scans the
// columns instead of consulting byKey: a map whose every key is dense has
// a handful of columns, and copying an index on every hop would cost more
// than the scan.
const scanCols = 16

// column holds one key's values, in one of two forms. A dense column
// (pos == nil) keeps position i's value at vals[i], and a position at or
// past len(vals) reads as Null, so appending an item touches no column. A
// sparse column keeps only its non-null values: vals[k] belongs to
// position pos[k], pos ascending. A write switches the form so that a
// column never costs much more than its values: a dense column that a
// write would leave less than a quarter full turns sparse, and a sparse
// column that fills half of its span turns dense.
type column struct {
	key  Key
	vals []Value
	pos  []int
	// n counts the non-null values; a column whose count reaches zero is
	// dropped, so Keys is the column keys.
	n int
	// owned reports that vals's and pos's backing arrays belong to this
	// handle alone; a write into a borrowed column copies it first.
	owned bool
}

// at returns the value at position i.
func (c *column) at(i int) Value {
	if c.pos != nil {
		return c.sparseAt(i)
	}
	if i < len(c.vals) {
		return c.vals[i]
	}
	return Null
}

// sparseAt is at for a sparse column; it is kept out of at so that at,
// and the reads built on it, stay small enough to inline.
func (c *column) sparseAt(i int) Value {
	if k, ok := slices.BinarySearch(c.pos, i); ok {
		return c.vals[k]
	}
	return Null
}

// span returns one past the last position the column stores.
func (c *column) span() int {
	if c.pos == nil {
		return len(c.vals)
	}
	return c.pos[len(c.pos)-1] + 1 // a sparse column holds a value
}

// each calls f with the position and value of every non-null value, in
// position order.
func (c *column) each(f func(i int, v Value)) {
	for k, v := range c.vals {
		if v.IsNull() {
			continue
		}
		if c.pos != nil {
			f(c.pos[k], v)
		} else {
			f(k, v)
		}
	}
}

// put stores the non-null v at position i of an owned column; c.n already
// counts it. full is the room to give the column if it turns dense.
func (c *column) put(i int, v Value, full int) {
	if c.pos == nil {
		if n := len(c.vals); i >= n {
			if 4*c.n < i+1 {
				c.toSparse()
				c.put(i, v, full)
				return
			}
			c.vals = slices.Grow(c.vals, i+1-n)[:i+1]
			clear(c.vals[n:])
		}
		c.vals[i] = v
		return
	}
	k, ok := slices.BinarySearch(c.pos, i)
	if ok {
		c.vals[k] = v
		return
	}
	c.pos = slices.Insert(c.pos, k, i)
	c.vals = slices.Insert(c.vals, k, v)
	if span := c.span(); 2*c.n >= span {
		c.toDense(max(span, full))
	}
}

// remove clears the value at position i; c.n already discounts it.
func (c *column) remove(i int) {
	if c.pos == nil {
		c.vals[i] = Null
		return
	}
	k, _ := slices.BinarySearch(c.pos, i)
	c.pos = slices.Delete(c.pos, k, k+1)
	c.vals = slices.Delete(c.vals, k, k+1)
}

// toSparse turns a dense column sparse.
func (c *column) toSparse() {
	pos, vals := make([]int, 0, c.n+1), make([]Value, 0, c.n+1)
	c.each(func(i int, v Value) {
		pos, vals = append(pos, i), append(vals, v)
	})
	c.pos, c.vals = pos, vals
}

// toDense turns a sparse column dense, with room for size positions.
func (c *column) toDense(size int) {
	vals := make([]Value, c.span(), max(c.span(), size))
	c.each(func(i int, v Value) { vals[i] = v })
	c.pos, c.vals = nil, vals
}

// NewMap returns an annotation map over the given items, in order.
// Duplicate items are kept once, at their first position.
func NewMap(items ...Item) *Map {
	m := &Map{
		order:      make([]Item, 0, len(items)),
		index:      make(map[Item]int, len(items)),
		itemsOwned: true,
		shared:     new(atomic.Bool),
	}
	for _, it := range items {
		m.AddItem(it)
	}
	return m
}

// own makes m the only handle over its column headers, copying them if a
// clone shares them. The copy borrows every column, the item order and
// the key index; ownItems, ownCol and the column-list writers copy those
// on their first write. Every writer calls it before its first change.
func (m *Map) own() {
	if !m.shared.Load() {
		return
	}
	cols := make([]column, len(m.cols), len(m.cols)+1) // room for a QA's tag
	for j, c := range m.cols {
		c.owned = false
		cols[j] = c
	}
	m.cols = cols
	m.itemsOwned, m.keysOwned = false, false
	m.shared = new(atomic.Bool)
}

// ownItems copies a borrowed item order and index. Callers own() first.
func (m *Map) ownItems() {
	if m.itemsOwned {
		return
	}
	m.order = append(make([]Item, 0, cap(m.order)), m.order...)
	m.index = maps.Clone(m.index)
	m.itemsOwned = true
}

// ownCol copies column j's values if they are borrowed. Callers own()
// first.
func (m *Map) ownCol(j int) {
	c := &m.cols[j]
	if c.owned {
		return
	}
	if c.pos != nil {
		c.pos = append(make([]int, 0, len(c.pos)+1), c.pos...)
		c.vals = append(make([]Value, 0, len(c.vals)+1), c.vals...)
	} else {
		c.vals = append(make([]Value, 0, max(len(c.vals), m.fullCap(c.n))), c.vals...)
	}
	c.owned = true
}

// fullCap is the room to give a dense column holding n values: the item
// order's capacity when the column holds a value for at least half the
// items, so a live window's columns do not regrow; otherwise none
// beyond what it stores.
func (m *Map) fullCap(n int) int {
	if 2*n >= len(m.order) {
		return cap(m.order)
	}
	return 0
}

// col returns the index of key's column, or -1.
func (m *Map) col(key Key) int {
	if m.byKey != nil {
		if j, ok := m.byKey[key]; ok {
			return j
		}
		return -1
	}
	for j := range m.cols {
		if m.cols[j].key == key {
			return j
		}
	}
	return -1
}

// addCol appends a column. Callers own() first.
func (m *Map) addCol(c column) {
	m.cols = append(m.cols, c)
	switch {
	case len(m.cols) <= scanCols:
	case m.keysOwned:
		m.byKey[c.key] = len(m.cols) - 1
	default:
		m.reindex()
	}
}

// dropEmpty deletes the columns left without values, so key churn cannot
// grow the column list. Callers own() first.
func (m *Map) dropEmpty() {
	n := len(m.cols)
	if m.cols = slices.DeleteFunc(m.cols, func(c column) bool { return c.n == 0 }); len(m.cols) < n {
		m.reindex()
	}
}

// reindex rebuilds byKey after columns moved.
func (m *Map) reindex() {
	m.byKey, m.keysOwned = nil, false
	if len(m.cols) <= scanCols {
		return
	}
	m.byKey = make(map[Key]int, len(m.cols))
	for j := range m.cols {
		m.byKey[m.cols[j].key] = j
	}
	m.keysOwned = true
}

// AddItem appends an item (no-op if present). It reports whether the item
// was added.
func (m *Map) AddItem(it Item) bool {
	if _, ok := m.index[it]; ok {
		return false
	}
	m.own()
	m.ownItems()
	m.index[it] = len(m.order)
	m.order = append(m.order, it)
	return true
}

// HasItem reports whether the item is in the map's data set.
func (m *Map) HasItem(it Item) bool {
	_, ok := m.index[it]
	return ok
}

// Items returns a copy of the data set in order. Callers may freely keep
// or mutate the returned slice; it never aliases the map's internal
// order, so concurrent readers of aliased views (the shard-parallel data
// plane shares maps across goroutines) cannot corrupt each other's
// iteration order.
func (m *Map) Items() []Item {
	if len(m.order) == 0 {
		return nil
	}
	return append([]Item(nil), m.order...)
}

// ItemAt returns the item at position i in the data set order.
func (m *Map) ItemAt(i int) Item { return m.order[i] }

// Len returns the number of data items.
func (m *Map) Len() int { return len(m.order) }

// Set associates an evidence value with (item, key), adding the item to
// the data set if absent. Setting Null removes the entry. A Set that
// leaves the map unchanged (the cell already holds a bit-identical value)
// copies nothing, even on a clone; any other Set on a clone copies the
// column headers once and the written column once.
func (m *Map) Set(it Item, key Key, v Value) {
	i, ok := m.index[it]
	if !ok {
		m.AddItem(it)
		i = len(m.order) - 1
	}
	m.setAt(i, key, v)
}

// setAt is Set for the item at position i.
func (m *Map) setAt(i int, key Key, v Value) {
	j := m.col(key)
	if j < 0 {
		if v.IsNull() {
			return
		}
		m.own()
		m.addCol(m.newCol(key, i))
		j = len(m.cols) - 1
	}
	m.write(j, i, v)
}

// newCol returns an empty column for key whose first value goes to
// position i: sparse when that value would fill less than half the span,
// otherwise dense. A dense column gets room for every item when the
// newest column holds a value for at least half the items — the mark of a
// QA adding its tag column — or, in a map without columns, when the value
// itself does, as on a window's first item.
func (m *Map) newCol(key Key, i int) column {
	if i > 1 {
		return column{key: key, vals: make([]Value, 0, 1), pos: make([]int, 0, 1), owned: true}
	}
	n := 1
	if last := len(m.cols) - 1; last >= 0 {
		n = 0
		if m.cols[last].pos == nil {
			n = m.cols[last].n
		}
	}
	return column{key: key, vals: make([]Value, 0, max(i+1, m.fullCap(n))), owned: true}
}

// write stores v at position i of column j, dropping the column if that
// leaves it empty. Writing a non-null value never moves column indexes.
func (m *Map) write(j, i int, v Value) {
	old := m.cols[j].at(i)
	if identical(old, v) {
		return
	}
	m.own() // column indexes survive the copy, so j stays valid
	switch {
	case !v.IsNull():
		m.ownCol(j)
		c := &m.cols[j]
		if old.IsNull() {
			c.n++
		}
		c.put(i, v, m.fullCap(c.n))
	case m.cols[j].n == 1:
		m.cols = slices.Delete(m.cols, j, j+1)
		m.reindex()
	default:
		m.ownCol(j)
		m.cols[j].n--
		m.cols[j].remove(i)
	}
}

// Get returns the evidence value for (item, key); Null when absent.
func (m *Map) Get(it Item, key Key) Value {
	if i, ok := m.index[it]; ok {
		if j := m.col(key); j >= 0 {
			return m.cols[j].at(i)
		}
	}
	return Null
}

// Has reports whether a non-null value exists for (item, key).
func (m *Map) Has(it Item, key Key) bool {
	return !m.Get(it, key).IsNull()
}

// Keys returns the sorted set of keys that have at least one non-null
// value anywhere in the map.
func (m *Map) Keys() []Key {
	out := make([]Key, len(m.cols))
	for j := range m.cols {
		out[j] = m.cols[j].key
	}
	slices.SortFunc(out, rdf.CompareTerms)
	return out
}

// Row returns a copy of the item's (key, value) entries.
func (m *Map) Row(it Item) map[Key]Value {
	out := make(map[Key]Value, len(m.cols))
	m.fillRow(it, out)
	return out
}

// fillRow stores the item's entries in out. It is apart from Row so that
// Row stays small enough to inline, and a caller that only reads the row
// can keep it on its stack.
func (m *Map) fillRow(it Item, out map[Key]Value) {
	i, ok := m.index[it]
	if !ok {
		return
	}
	for j := range m.cols {
		if v := m.cols[j].at(i); !v.IsNull() {
			out[m.cols[j].key] = v
		}
	}
}

// SetClass records a class assignment {d → (model, label)} — the output
// form of a classifier QA (paper §4.1).
func (m *Map) SetClass(it Item, model rdf.Term, label rdf.Term) {
	m.Set(it, model, TermValue(label))
}

// Class returns the class label assigned to the item under the given
// classification model, or a zero Term if unassigned.
func (m *Map) Class(it Item, model rdf.Term) rdf.Term {
	if t, ok := m.Get(it, model).AsTerm(); ok {
		return t
	}
	return rdf.Term{}
}

// Clone returns a copy that evolves independently of m. It is O(1): the
// copy shares m's storage, and whichever of the two first writes copies
// the column headers then (once per side), and each column it writes on
// that column's first write, so a clone that is only read never copies at
// all. Cloning the same map from several goroutines at once is safe.
func (m *Map) Clone() *Map {
	m.shared.Store(true)
	c := *m
	return &c
}

// Project returns a new map restricted to the given items (in the given
// order), carrying over their evidence entries. Items absent from m are
// included with no evidence.
func (m *Map) Project(items []Item) *Map {
	out := NewMap(items...)
	// src maps each of out's positions to its position in m, or -1; dst
	// maps back, for the sparse columns.
	src := make([]int, len(out.order))
	for i, it := range out.order {
		if s, ok := m.index[it]; ok {
			src[i] = s
		} else {
			src[i] = -1
		}
	}
	var dst []int
	for j := range m.cols {
		c := &m.cols[j]
		if c.pos == nil {
			oc := column{key: c.key, vals: make([]Value, len(src)), owned: true}
			for i, s := range src {
				if s < 0 {
					continue
				}
				if v := c.at(s); !v.IsNull() {
					oc.vals[i] = v
					oc.n++
				}
			}
			if oc.n > 0 {
				if 4*oc.n < len(oc.vals) {
					oc.toSparse()
				}
				out.addCol(oc)
			}
			continue
		}
		if dst == nil {
			dst = make([]int, len(m.order))
			for s := range dst {
				dst[s] = -1
			}
			for i, s := range src {
				if s >= 0 {
					dst[s] = i
				}
			}
		}
		for k, s := range c.pos {
			if i := dst[s]; i >= 0 {
				out.setAt(i, c.key, c.vals[k])
			}
		}
	}
	return out
}

// Filter returns a new map containing only the items for which keep
// returns true, preserving order and evidence.
func (m *Map) Filter(keep func(Item) bool) *Map {
	var kept []Item
	for _, it := range m.order {
		if keep(it) {
			kept = append(kept, it)
		}
	}
	return m.Project(kept)
}

// Merge copies every item and evidence entry of other into m, appending
// unseen items after m's existing ones. On key conflicts, other wins —
// this implements the "consolidate assertions" step the quality-view
// compiler inserts after multiple QAs (paper §6.1). Cells m already holds
// bit-identically are skipped, so merging a map's own clone copies
// nothing.
//
// When both maps hold the same items in the same order — the outputs of
// sibling QAs over one input — a column both share is skipped, and a
// column only other holds is adopted without copying (both maps then
// treat it as borrowed). Consolidating k QA outputs therefore costs
// O(columns), not O(cells).
func (m *Map) Merge(other *Map) {
	if !m.sameItems(other) {
		dst := make([]int, len(other.order))
		for i, it := range other.order {
			m.AddItem(it)
			dst[i] = m.index[it]
		}
		for _, oc := range other.cols {
			oc.each(func(i int, v Value) { m.setAt(dst[i], oc.key, v) })
		}
		return
	}
	for _, oc := range other.cols {
		j := m.col(oc.key)
		switch {
		case j < 0:
			other.shared.Store(true)
			m.own()
			oc.owned = false
			m.addCol(oc)
		case &m.cols[j].vals[0] == &oc.vals[0]:
			// The same values: a column is never empty, and an array two
			// handles share is never written in place.
		default:
			oc.each(func(i int, v Value) { m.write(j, i, v) })
		}
	}
}

// sameItems reports whether m and other hold the same items in the same
// order, so their columns align position by position.
func (m *Map) sameItems(other *Map) bool {
	if len(m.order) != len(other.order) {
		return false
	}
	return len(m.order) == 0 || &m.order[0] == &other.order[0] || slices.Equal(m.order, other.order)
}

// Shard splits the map into order-preserving item shards of at most size
// items each, carrying the items' full evidence rows. Concatenating the
// shards in order (MergeShards) reconstructs the map exactly. A size ≤ 0,
// or one no smaller than the data set, yields a single shard aliasing m
// itself — the serial fast path costs nothing. Shards are independent
// copies, safe to hand to concurrent workers.
func (m *Map) Shard(size int) []*Map {
	if size <= 0 || len(m.order) <= size {
		return []*Map{m}
	}
	shards := make([]*Map, 0, (len(m.order)+size-1)/size)
	for start := 0; start < len(m.order); start += size {
		end := start + size
		if end > len(m.order) {
			end = len(m.order)
		}
		shards = append(shards, m.Project(m.order[start:end]))
	}
	return shards
}

// MergeShards concatenates item shards back into one map, preserving
// shard order and each shard's internal item order — the inverse of
// Shard for disjoint shards. Evidence conflicts (only possible when the
// shards overlap) resolve last-shard-wins, matching Merge.
func MergeShards(shards []*Map) *Map {
	if len(shards) == 1 {
		return shards[0]
	}
	out := NewMap()
	for _, s := range shards {
		if s != nil {
			out.Merge(s)
		}
	}
	return out
}

// WriteCanonical writes a deterministic, collision-free byte encoding of
// the map: the item list in order, then each item's evidence row with
// keys sorted, every field length-prefixed. Two maps produce the same
// encoding iff they carry the same items in the same order with the same
// evidence — the payload encoding behind content-addressed cache keys
// (internal/qcache).
func (m *Map) WriteCanonical(w io.Writer) error {
	var scratch [binary.MaxVarintLen64]byte
	writeBytes := func(s string) error {
		n := binary.PutUvarint(scratch[:], uint64(len(s)))
		if _, err := w.Write(scratch[:n]); err != nil {
			return err
		}
		_, err := io.WriteString(w, s)
		return err
	}
	writeInt := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := w.Write(scratch[:n])
		return err
	}
	if err := writeInt(uint64(len(m.order))); err != nil {
		return err
	}
	for _, it := range m.order {
		if err := writeBytes(it.String()); err != nil {
			return err
		}
	}
	sorted := make([]*column, len(m.cols))
	for j := range m.cols {
		sorted[j] = &m.cols[j]
	}
	slices.SortFunc(sorted, func(a, b *column) int { return rdf.CompareTerms(a.key, b.key) })
	// Bucket the columns by item, in key order — item i's are
	// row[start[i]:start[i+1]] — so the walk costs what the values cost,
	// however many keys only a few items carry.
	start := make([]int, len(m.order)+1)
	for _, c := range sorted {
		c.each(func(i int, _ Value) { start[i+1]++ })
	}
	for i := range m.order {
		start[i+1] += start[i]
	}
	row := make([]*column, start[len(m.order)])
	fill := slices.Clone(start)
	for _, c := range sorted {
		c.each(func(i int, _ Value) {
			row[fill[i]] = c
			fill[i]++
		})
	}
	for i := range m.order {
		if err := writeInt(uint64(start[i+1] - start[i])); err != nil {
			return err
		}
		for _, c := range row[start[i]:start[i+1]] {
			v := c.at(i)
			if err := writeBytes(c.key.String()); err != nil {
				return err
			}
			if err := writeBytes(v.Kind().String()); err != nil {
				return err
			}
			if err := writeBytes(v.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// FloatColumn returns the values of key for every item that has a numeric
// value, in item order, together with the owning items.
func (m *Map) FloatColumn(key Key) (items []Item, vals []float64) {
	j := m.col(key)
	if j < 0 {
		return nil, nil
	}
	m.cols[j].each(func(i int, v Value) {
		if f, ok := v.AsFloat(); ok {
			items = append(items, m.order[i])
			vals = append(vals, f)
		}
	})
	return items, vals
}

// String renders a compact table for debugging.
func (m *Map) String() string {
	var b strings.Builder
	keys := m.Keys()
	fmt.Fprintf(&b, "Amap[%d items, %d keys]\n", len(m.order), len(keys))
	for _, it := range m.order {
		b.WriteString("  ")
		b.WriteString(it.String())
		for _, k := range keys {
			if v := m.Get(it, k); !v.IsNull() {
				fmt.Fprintf(&b, " %s=%s", shortKey(k), v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func shortKey(k Key) string {
	v := k.Value()
	for i := len(v) - 1; i >= 0; i-- {
		if v[i] == '#' || v[i] == '/' || v[i] == ':' {
			return v[i+1:]
		}
	}
	return v
}

// Stats holds summary statistics of a numeric evidence column.
type Stats struct {
	N            int
	Mean, StdDev float64
	Min, Max     float64
}

// ColumnStats computes mean and (population) standard deviation of the
// numeric values under key — the quantities the paper's three-way
// classifier thresholds on (§5.1: avg ± stddev).
func (m *Map) ColumnStats(key Key) Stats {
	_, vals := m.FloatColumn(key)
	return ComputeStats(vals)
}

// ComputeStats computes summary statistics over a sample.
func ComputeStats(vals []float64) Stats {
	s := Stats{N: len(vals)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = vals[0], vals[0]
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	varSum := 0.0
	for _, v := range vals {
		d := v - s.Mean
		varSum += d * d
	}
	s.StdDev = math.Sqrt(varSum / float64(s.N))
	return s
}

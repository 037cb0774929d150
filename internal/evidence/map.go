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
// Each item's evidence row is a short slice of (key, value) cells held at
// the item's position, so an access costs one hash lookup (the item) and
// a scan of a few cells. Clone is O(1) and copy-on-write: a clone shares
// the original's storage until either side first writes, and that write
// copies the storage once (the same ownership model as rdf.Graph's
// Clone). Read-only hops therefore copy nothing, and a writer copies only
// what it holds.
//
// Map is not safe for concurrent mutation; operators receive and return
// maps by value-semantics methods (Clone, Project, Merge). Cloning one
// map, and reading it, from several goroutines at once is safe.
type Map struct {
	order []Item
	index map[Item]int
	rows  [][]cell // rows[i] is the evidence row of order[i]
	// shared is set once the storage above is reachable from another
	// handle (a clone, or the map a clone was taken from); every handle
	// over one storage points at the same flag. Writers copy the storage
	// first while it is set, then take a fresh flag. It is atomic because
	// a cached map is cloned from several goroutines at once.
	shared *atomic.Bool
}

// cell is one (key, value) entry of an item's evidence row.
type cell struct {
	k Key
	v Value
}

// NewMap returns an annotation map over the given items, in order.
// Duplicate items are kept once, at their first position.
func NewMap(items ...Item) *Map {
	m := &Map{
		index:  make(map[Item]int, len(items)),
		rows:   make([][]cell, 0, len(items)),
		shared: new(atomic.Bool),
	}
	for _, it := range items {
		m.AddItem(it)
	}
	return m
}

// own makes m the only handle over its storage, copying the storage if a
// clone shares it. Every writer calls it before its first change.
func (m *Map) own() {
	if !m.shared.Load() {
		return
	}
	m.order = append([]Item(nil), m.order...)
	m.index = maps.Clone(m.index)
	m.rows = packRows(m.rows, len(m.rows))
	m.shared = new(atomic.Bool)
}

// packRows copies rows into one backing array, leaving each row room for
// one more cell so that a tag written after the copy does not regrow it.
// The returned slice has capacity for at least size rows.
func packRows(rows [][]cell, size int) [][]cell {
	n := 0
	for _, r := range rows {
		n += len(r) + 1
	}
	buf := make([]cell, n)
	out := make([][]cell, len(rows), max(size, len(rows)))
	off := 0
	for i, r := range rows {
		copy(buf[off:], r)
		out[i] = buf[off : off+len(r) : off+len(r)+1]
		off += len(r) + 1
	}
	return out
}

// find returns the position of key in row, or -1.
func find(row []cell, key Key) int {
	for j := range row {
		if row[j].k == key {
			return j
		}
	}
	return -1
}

// AddItem appends an item (no-op if present). It reports whether the item
// was added.
func (m *Map) AddItem(it Item) bool {
	if _, ok := m.index[it]; ok {
		return false
	}
	m.own()
	m.index[it] = len(m.order)
	m.order = append(m.order, it)
	m.rows = append(m.rows, nil)
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
// copies nothing, even on a clone.
func (m *Map) Set(it Item, key Key, v Value) {
	i, ok := m.index[it]
	if !ok {
		m.AddItem(it)
		i = len(m.order) - 1
	}
	j := find(m.rows[i], key)
	switch {
	case j < 0 && v.IsNull():
		return
	case j >= 0 && identical(m.rows[i][j].v, v):
		return
	}
	m.own() // positions survive the copy, so i and j stay valid
	row := m.rows[i]
	switch {
	case j < 0:
		m.rows[i] = append(row, cell{key, v})
	case v.IsNull():
		m.rows[i] = slices.Delete(row, j, j+1)
	default:
		row[j].v = v
	}
}

// identical reports whether two values are the same bit for bit. Floats
// compare by their bits, so −0 and +0 differ (WriteCanonical tells them
// apart) and a NaN equals itself.
func identical(a, b Value) bool {
	return a.kind == b.kind && math.Float64bits(a.f) == math.Float64bits(b.f) &&
		a.i == b.i && a.s == b.s && a.b == b.b && a.t == b.t
}

// Get returns the evidence value for (item, key); Null when absent.
func (m *Map) Get(it Item, key Key) Value {
	if i, ok := m.index[it]; ok {
		if j := find(m.rows[i], key); j >= 0 {
			return m.rows[i][j].v
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
	seen := map[Key]struct{}{}
	for _, row := range m.rows {
		for j := range row {
			seen[row[j].k] = struct{}{}
		}
	}
	out := make([]Key, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	slices.SortFunc(out, rdf.CompareTerms)
	return out
}

// Row returns a copy of the item's (key, value) entries.
func (m *Map) Row(it Item) map[Key]Value {
	var row []cell
	if i, ok := m.index[it]; ok {
		row = m.rows[i]
	}
	out := make(map[Key]Value, len(row))
	for j := range row {
		out[row[j].k] = row[j].v
	}
	return out
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
// the storage then (once per side), so a clone that is only read never
// copies at all. Cloning the same map from several goroutines at once is
// safe.
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
	for i, it := range out.order {
		if j, ok := m.index[it]; ok {
			out.rows[i] = m.rows[j]
		}
	}
	out.rows = packRows(out.rows, len(out.rows))
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
func (m *Map) Merge(other *Map) {
	for i, it := range other.order {
		m.AddItem(it)
		for _, c := range other.rows[i] {
			m.Set(it, c.k, c.v)
		}
	}
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
	var sorted []cell
	for _, row := range m.rows {
		sorted = append(sorted[:0], row...)
		slices.SortFunc(sorted, func(a, b cell) int { return rdf.CompareTerms(a.k, b.k) })
		if err := writeInt(uint64(len(sorted))); err != nil {
			return err
		}
		for _, c := range sorted {
			if err := writeBytes(c.k.String()); err != nil {
				return err
			}
			if err := writeBytes(c.v.Kind().String()); err != nil {
				return err
			}
			if err := writeBytes(c.v.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// FloatColumn returns the values of key for every item that has a numeric
// value, in item order, together with the owning items.
func (m *Map) FloatColumn(key Key) (items []Item, vals []float64) {
	for i, row := range m.rows {
		if j := find(row, key); j >= 0 {
			if f, ok := row[j].v.AsFloat(); ok {
				items = append(items, m.order[i])
				vals = append(vals, f)
			}
		}
	}
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

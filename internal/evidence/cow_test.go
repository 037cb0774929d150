package evidence

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"qurator/internal/rdf"
)

// refMap is an independent deep-copy model of an annotation map: plain
// Go maps and slices, no sharing, every clone a full copy. The
// copy-on-write tests compare Map against it after every operation.
type refMap struct {
	order []Item
	rows  map[Item]map[Key]Value
}

func newRef(items ...Item) *refMap {
	r := &refMap{rows: map[Item]map[Key]Value{}}
	for _, it := range items {
		r.add(it)
	}
	return r
}

func (r *refMap) add(it Item) {
	if _, ok := r.rows[it]; !ok {
		r.order = append(r.order, it)
		r.rows[it] = map[Key]Value{}
	}
}

func (r *refMap) set(it Item, k Key, v Value) {
	r.add(it)
	if v.IsNull() {
		delete(r.rows[it], k)
		return
	}
	r.rows[it][k] = v
}

func (r *refMap) remove(it Item) {
	if _, ok := r.rows[it]; !ok {
		return
	}
	delete(r.rows, it)
	for i, o := range r.order {
		if o == it {
			r.order = append(r.order[:i:i], r.order[i+1:]...)
			return
		}
	}
}

func (r *refMap) clone() *refMap {
	c := newRef()
	for _, it := range r.order {
		c.add(it)
		for k, v := range r.rows[it] {
			c.rows[it][k] = v
		}
	}
	return c
}

func (r *refMap) project(items []Item) *refMap {
	p := newRef(items...)
	for _, it := range p.order {
		for k, v := range r.rows[it] {
			p.rows[it][k] = v
		}
	}
	return p
}

func (r *refMap) merge(o *refMap) {
	o = o.clone() // o may be r itself
	for _, it := range o.order {
		r.add(it)
		for k, v := range o.rows[it] {
			r.rows[it][k] = v
		}
	}
}

// keys returns the sorted keys holding a value in some row.
func (r *refMap) keys() []Key {
	seen := map[Key]bool{}
	for _, row := range r.rows {
		for k := range row {
			seen[k] = true
		}
	}
	out := make([]Key, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return rdf.CompareTerms(out[i], out[j]) < 0 })
	return out
}

// canonical encodes the model in WriteCanonical's format, written here
// independently of Map.
func (r *refMap) canonical() []byte {
	var b bytes.Buffer
	str := func(s string) {
		b.Write(binary.AppendUvarint(nil, uint64(len(s))))
		b.WriteString(s)
	}
	b.Write(binary.AppendUvarint(nil, uint64(len(r.order))))
	for _, it := range r.order {
		str(it.String())
	}
	for _, it := range r.order {
		keys := make([]Key, 0, len(r.rows[it]))
		for k := range r.rows[it] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return rdf.CompareTerms(keys[i], keys[j]) < 0 })
		b.Write(binary.AppendUvarint(nil, uint64(len(keys))))
		for _, k := range keys {
			v := r.rows[it][k]
			str(k.String())
			str(v.Kind().String())
			str(v.String())
		}
	}
	return b.Bytes()
}

func canonical(m *Map) []byte {
	var b bytes.Buffer
	_ = m.WriteCanonical(&b) // a bytes.Buffer write never fails
	return b.Bytes()
}

var (
	cowKeys = []Key{hrKey, mcKey, model, rdf.IRI("http://qurator.org/iq#HR_MC")}
	// cowValues includes both zeros and NaN: Merge and Set must treat
	// them bit for bit, so −0 overwrites +0 and the encoding shows it.
	cowValues = []Value{
		Null, Float(0.5), Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()),
		Int(3), String_("IEA"), TermValue(high), TermValue(low), Bool(true),
	}
	// cowTags are two QA tags that only sibling writes use, so a sibling
	// merge usually finds a column its target lacks and adopts it.
	cowTags = []Key{rdf.IRI("http://qurator.org/iq#tagA"), rdf.IRI("http://qurator.org/iq#tagB")}
)

// wideKeys returns n evidence keys: more than scanCols, so a map written
// with them indexes its columns by key.
func wideKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = rdf.IRI(fmt.Sprintf("http://qurator.org/iq#wide%d", i))
	}
	return keys
}

// cowMaxHandles bounds the live handles; a new clone or projection past
// it replaces an existing handle (which the old one's clones outlive).
const cowMaxHandles = 8

// runCOWProgram interprets prog as a sequence of map operations over a
// growing set of handles (clones of clones, projections), writing the
// given keys, applying each operation to the Map under test and to the
// reference model, and checks every live handle against its model, and
// its own storage invariants, after each step.
func runCOWProgram(tb testing.TB, prog []byte, cowKeys []Key) {
	tb.Helper()
	siblingKeys := append(cowKeys[:len(cowKeys):len(cowKeys)], cowTags...)
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	nextItem := func() Item { return item(next() % 10) }

	maps := []*Map{NewMap(item(0), item(1), item(2))}
	refs := []*refMap{newRef(item(0), item(1), item(2))}
	addHandle := func(m *Map, r *refMap) {
		if len(maps) < cowMaxHandles {
			maps, refs = append(maps, m), append(refs, r)
			return
		}
		i := next() % cowMaxHandles
		maps[i], refs[i] = m, r
	}
	for step := 0; pos < len(prog); step++ {
		op, h := next()%10, next()%len(maps)
		m, r := maps[h], refs[h]
		switch op {
		case 0, 1: // Set is the hot write; weight it double
			it, k, v := nextItem(), cowKeys[next()%len(cowKeys)], cowValues[next()%len(cowValues)]
			m.Set(it, k, v)
			r.set(it, k, v)
		case 2:
			it := nextItem()
			m.AddItem(it)
			r.add(it)
		case 3:
			it := nextItem()
			m.RemoveItem(it)
			r.remove(it)
		case 4:
			n := next() % 4
			m.RemoveFirst(n)
			for i := 0; i < n && len(r.order) > 0; i++ {
				r.remove(r.order[0])
			}
		case 5:
			it := nextItem()
			row := map[Key]Value{}
			for i, n := 0, next()%4; i < n; i++ {
				row[cowKeys[next()%len(cowKeys)]] = cowValues[next()%len(cowValues)]
			}
			m.SetRow(it, row)
			r.add(it)
			for k, v := range row {
				if !v.IsNull() {
					r.set(it, k, v)
				}
			}
		case 6:
			o := next() % len(maps)
			m.Merge(maps[o])
			r.merge(refs[o])
		case 7:
			items := make([]Item, next()%5)
			for i := range items {
				items[i] = nextItem()
			}
			addHandle(m.Project(items), r.project(items))
		case 8:
			addHandle(m.Clone(), r.clone())
		case 9: // sibling merge: the consolidation of QA outputs over one input
			if m.Len() == 0 {
				break
			}
			a, b, ra, rb := m.Clone(), m.Clone(), r.clone(), r.clone()
			write := func(x *Map, rx *refMap) { // a value write: no item added
				it := m.ItemAt(next() % m.Len())
				k, v := siblingKeys[next()%len(siblingKeys)], cowValues[next()%len(cowValues)]
				x.Set(it, k, v)
				rx.set(it, k, v)
			}
			for i, n := 0, next()%3; i < n; i++ {
				write(a, ra)
			}
			for i, n := 0, 1+next()%3; i < n; i++ {
				write(b, rb)
			}
			a.Merge(b)
			ra.merge(rb)
			write(a, ra)
			write(b, rb)
			addHandle(a, ra)
			addHandle(b, rb)
		}
		for i := range maps {
			if got, want := canonical(maps[i]), refs[i].canonical(); !bytes.Equal(got, want) {
				tb.Fatalf("step %d (op %d on handle %d): handle %d diverged from its model\n got %q\nwant %q",
					step, op, h, i, got, want)
			}
			if err := checkColumns(maps[i]); err != nil {
				tb.Fatalf("step %d (op %d on handle %d): handle %d: %v", step, op, h, i, err)
			}
		}
	}
}

// checkColumns checks the storage invariants of m's columns: each count
// matches its values, a sparse column holds only non-null values at
// ascending positions, no column is empty, and the key index, when there
// is one, finds every column.
func checkColumns(m *Map) error {
	if (m.byKey != nil) != (len(m.cols) > scanCols) {
		return fmt.Errorf("%d columns, key index built: %v", len(m.cols), m.byKey != nil)
	}
	for j := range m.cols {
		c := &m.cols[j]
		n := 0
		c.each(func(int, Value) { n++ })
		switch {
		case n != c.n || n == 0:
			return fmt.Errorf("column %v counts %d values, holds %d", c.key, c.n, n)
		case c.pos != nil && (len(c.pos) != n || len(c.vals) != n || !slices.IsSorted(c.pos) || c.pos[0] < 0):
			return fmt.Errorf("sparse column %v: positions %v, %d values", c.key, c.pos, len(c.vals))
		case c.span() > len(m.order):
			return fmt.Errorf("column %v spans %d of %d items", c.key, c.span(), len(m.order))
		case m.byKey != nil && m.byKey[c.key] != j:
			return fmt.Errorf("key index has %v at %d, want %d", c.key, m.byKey[c.key], j)
		}
	}
	return nil
}

// Property: however clones, clones of clones and projections interleave
// with writes, every handle reads exactly as an independent deep copy
// would — with a few dense keys, and with many keys, mostly sparse, that
// the maps index by key.
func TestMapCopyOnWriteProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 300)
		rng.Read(prog)
		runCOWProgram(t, prog, cowKeys)
		runCOWProgram(t, prog, wideKeys(24))
	}
}

func FuzzMapCopyOnWrite(f *testing.F) {
	f.Add([]byte{8, 0, 0, 0, 0, 1, 1, 2, 3, 6, 0, 1})
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3, 1, 4, 1, 3, 6, 1, 0, 7, 0, 3, 1, 2, 9})
	f.Add([]byte{9, 0, 1, 2, 4, 1, 2, 1, 3, 5, 2, 0, 4, 3, 1, 5, 6, 0, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runCOWProgram(t, prog, cowKeys)
		runCOWProgram(t, prog, wideKeys(24))
	})
}

// Clones of one shared map are written from several goroutines while
// others read the original; run under -race.
func TestCloneConcurrentWriters(t *testing.T) {
	m := cowMap(64)
	before := canonical(m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			c := m.Clone()
			c.Set(item(g), hrKey, Float(float64(-g)))
			c.RemoveFirst(1)
			c.Merge(m.Clone())
			if got := c.Get(item(g), hrKey); g > 0 && got != Float(float64(g)) {
				t.Errorf("goroutine %d: merged-back value = %v", g, got)
			}
			if c.Len() != 64 {
				t.Errorf("goroutine %d: clone has %d items, want 64", g, c.Len())
			}
		}(g)
		go func() {
			defer wg.Done()
			if !bytes.Equal(canonical(m.Clone()), before) {
				t.Error("a reader saw the original change")
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(canonical(m), before) {
		t.Fatal("writes to clones changed the original")
	}
}

// cowMap returns an n-item map shaped like a window after enrichment:
// four evidence values per item.
func cowMap(n int) *Map {
	m := NewMap()
	for i := 0; i < n; i++ {
		m.SetRow(item(i), map[Key]Value{
			hrKey: Float(float64(i)), mcKey: Float(float64(i) / 2),
			cowKeys[3]: Int(int64(i)), model: TermValue(high),
		})
	}
	return m
}

// A read-only hop (clone, then read) costs one header allocation at
// most, merging identical content into a clone copies nothing, a QA hop
// copies the column headers and adds its tag column, and consolidating
// sibling QA outputs adopts their columns without copying values.
func TestCloneAllocations(t *testing.T) {
	m := cowMap(64)
	items := m.Items()
	last, fifth := item(63), item(5)
	var sink Value
	if n := testing.AllocsPerRun(100, func() {
		c := m.Clone()
		sink = c.Get(last, hrKey)
		_ = c.HasItem(fifth)
		_ = c.Len()
	}); n > 1 {
		t.Errorf("Clone plus reads: %v allocs, want ≤ 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c := m.Clone()
		c.Merge(m)
	}); n > 1 {
		t.Errorf("Merge of identical content into a clone: %v allocs, want ≤ 1 (no copy)", n)
	}
	tagA, tagB := cowTags[0], cowTags[1]
	qaHop := func(tag Key) *Map {
		c := m.Clone()
		for i, it := range items {
			c.Set(it, tag, Float(float64(i)))
		}
		return c
	}
	if n := testing.AllocsPerRun(100, func() { qaHop(tagA) }); n > 4 {
		t.Errorf("QA hop (clone, then one new tag per item): %v allocs, want ≤ 4", n)
	}
	a, b := qaHop(tagA), qaHop(tagB)
	if n := testing.AllocsPerRun(100, func() {
		c := a.Clone()
		c.Merge(b)
	}); n > 3 {
		t.Errorf("consolidation of two sibling QA outputs: %v allocs, want ≤ 3", n)
	}
	_ = sink
}

// bytesPerRun returns the average number of bytes f allocates, counted
// as testing.AllocsPerRun counts allocations.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// A key that few items carry costs about what its values cost, not a
// value slot per item: one value on one item of a 1000-item clone, and a
// map built as a wire annotation map is decoded — every item first, then
// 1000 keys that each hold one item's value. Dense columns would cost
// 104 KB for the first and 104 MB for the second.
func TestSparseKeysCostTheirValues(t *testing.T) {
	const n = 1000
	items := make([]Item, n)
	for i := range items {
		items[i] = item(i)
	}
	m := NewMap(items...)
	for _, p := range []int{0, 1, n / 2, n - 1} {
		if b := bytesPerRun(20, func() {
			m.Clone().Set(items[p], hrKey, Float(1))
		}); b > 512 {
			t.Errorf("one value on item %d of a %d-item clone: %.0f bytes, want ≤ 512", p, n, b)
		}
	}
	keys := wideKeys(n)
	empty := bytesPerRun(5, func() { NewMap(items...) })
	if b := bytesPerRun(5, func() {
		w := NewMap(items...)
		for i, it := range items {
			w.Set(it, keys[i], Float(float64(i)))
		}
	}); b-empty > n*1024 {
		t.Errorf("%d keys with one value each over %d items: %.0f bytes beyond the items, want ≤ %d", n, n, b-empty, n*1024)
	}
}

// Clones of one shared map each merge the same sibling — marking it
// shared from several goroutines at once — and then write; run under
// -race. Neither the shared map nor the sibling may change.
func TestCloneConcurrentMerge(t *testing.T) {
	base := cowMap(64)
	m, sib := base.Clone(), base.Clone()
	tag := cowTags[0]
	for i, it := range sib.Items() {
		sib.Set(it, tag, Float(float64(i)))
	}
	mBefore, sibBefore := canonical(m), canonical(sib)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := m.Clone()
			c.Merge(sib)
			c.Set(item(g), tag, Float(-1))
			c.Set(item(g+1), hrKey, Null)
			c.RemoveFirst(1)
			c.SetRow(item(100+g), map[Key]Value{tag: Int(int64(g))})
			if got := c.Get(item(g+2), tag); got != Float(float64(g+2)) {
				t.Errorf("goroutine %d: adopted value = %v", g, got)
			}
			if got := c.Get(item(100+g), tag); got != Int(int64(g)) {
				t.Errorf("goroutine %d: appended value = %v", g, got)
			}
		}(g)
	}
	wg.Wait()
	if !bytes.Equal(canonical(m), mBefore) {
		t.Error("writes after the merges changed the shared map")
	}
	if !bytes.Equal(canonical(sib), sibBefore) {
		t.Error("writes after the merges changed the merged sibling")
	}
}

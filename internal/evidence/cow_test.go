package evidence

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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
)

// cowMaxHandles bounds the live handles; a new clone or projection past
// it replaces an existing handle (which the old one's clones outlive).
const cowMaxHandles = 8

// runCOWProgram interprets prog as a sequence of map operations over a
// growing set of handles (clones of clones, projections), applying each
// to the Map under test and to the reference model, and checks every
// live handle against its model after each step.
func runCOWProgram(tb testing.TB, prog []byte) {
	tb.Helper()
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
		op, h := next()%9, next()%len(maps)
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
		}
		for i := range maps {
			if got, want := canonical(maps[i]), refs[i].canonical(); !bytes.Equal(got, want) {
				tb.Fatalf("step %d (op %d on handle %d): handle %d diverged from its model\n got %q\nwant %q",
					step, op, h, i, got, want)
			}
		}
	}
}

// Property: however clones, clones of clones and projections interleave
// with writes, every handle reads exactly as an independent deep copy
// would.
func TestMapCopyOnWriteProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 300)
		rng.Read(prog)
		runCOWProgram(t, prog)
	}
}

func FuzzMapCopyOnWrite(f *testing.F) {
	f.Add([]byte{8, 0, 0, 0, 0, 1, 1, 2, 3, 6, 0, 1})
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3, 1, 4, 1, 3, 6, 1, 0, 7, 0, 3, 1, 2, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runCOWProgram(t, prog)
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
// most, and merging identical content into a clone copies nothing.
func TestCloneAllocations(t *testing.T) {
	m := cowMap(64)
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
	_ = sink
}

package stream

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

// countModel models count windows from the rules DESIGN.md states, with
// none of the windower's data structures. A fresh item takes the next
// arrival clock; window k covers clocks [k·S, k·S+W) and fires on the
// arrival that fills it, deciding its items no earlier window decided. A
// fired window is retained while the watermark (the next clock) is below
// its end + 4·S; an item is tracked while the last window covering its
// clock is. A tracked item's re-arrival refreshes its value and re-fires
// every retained window covering its clock. The input's close fires the
// earliest unfired window if it holds an undecided item.
type countModel struct {
	w, s, next int
	drop       bool
	clock      map[string]int
	decided    map[string]bool
	val        map[string]float64
	byClock    []string
	fired      []*modelWindow
	jobs       []modelJob
}

type modelWindow struct {
	items, decide []string
	val           map[string]float64
}

type modelJob struct {
	items, decide []string
	vals          []float64
	partial, late bool
}

func (m *countModel) emit(win *modelWindow, partial, late bool) {
	j := modelJob{items: win.items, decide: slices.Clone(win.decide), partial: partial, late: late}
	for _, id := range win.items {
		j.vals = append(j.vals, win.val[id])
	}
	m.jobs = append(m.jobs, j)
}

// fire fires the next window over clocks [k·S, end).
func (m *countModel) fire(end int, partial bool) {
	win := &modelWindow{val: map[string]float64{}}
	for _, id := range m.byClock[len(m.fired)*m.s : end] {
		win.items = append(win.items, id)
		win.val[id] = m.val[id]
		if !m.decided[id] {
			m.decided[id] = true
			win.decide = append(win.decide, id)
		}
	}
	if !partial {
		m.fired = append(m.fired, win)
	}
	m.emit(win, partial, false)
}

func (m *countModel) push(id string, v float64) {
	c, ok := m.clock[id]
	if !ok || m.next >= c/m.s*m.s+m.w+4*m.s {
		m.clock[id], m.decided[id], m.val[id] = m.next, false, v
		m.byClock = append(m.byClock, id)
		if m.next++; m.next >= m.w && (m.next-m.w)%m.s == 0 {
			m.fire(m.next, false)
		}
		return
	}
	m.val[id] = v
	k := 0 // the first window covering c
	if c >= m.w {
		k = (c-m.w)/m.s + 1
	}
	for ; k*m.s <= c && k < len(m.fired); k++ {
		if win := m.fired[k]; !m.drop && m.next < k*m.s+m.w+4*m.s {
			win.val = maps.Clone(win.val)
			win.val[id] = v
			m.emit(win, false, true)
		}
	}
}

func (m *countModel) flush() {
	if from := len(m.fired) * m.s; from < m.next &&
		slices.ContainsFunc(m.byClock[from:], func(id string) bool { return !m.decided[id] }) {
		m.fire(m.next, true)
	}
}

// countFeed decodes a count-window configuration and a feed from bytes:
// Window in [1, 16], Slide in [1, Window], a late policy, then one
// arrival per byte — a fresh item, or a re-arrival of the item first
// seen a chosen number of fresh items ago, reaching from the live window
// to past the four-slide horizon.
func countFeed(data []byte) (Config, []Item) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	cfg := Config{Window: 1 + at(0)%16}
	cfg.Slide = 1 + at(1)%cfg.Window
	if at(2)%4 == 0 {
		cfg.LatePolicy = LateDrop
	}
	var feed []Item
	fresh := 0
	for i := 3; i < len(data); i++ {
		id := fresh
		if b := int(data[i]); b >= 96 && fresh > 0 {
			id = fresh - 1 - (b-96)%min(fresh, cfg.Window+6*cfg.Slide)
		} else {
			fresh++
		}
		feed = append(feed, Item{
			ID:       rdf.IRI(fmt.Sprintf("urn:item:%d", id)),
			Evidence: map[evidence.Key]evidence.Value{ontology.HitRatio: evidence.Float(float64(i))},
		})
	}
	return cfg, feed
}

// checkCountWindows runs a feed through the windower and the model and
// compares every job: sequence number, items, decide set, flags and the
// evidence each item carries in the job's map.
func checkCountWindows(t *testing.T, data []byte) {
	cfg, feed := countFeed(data)
	w := newWindower(cfg, "model")
	m := &countModel{w: cfg.Window, s: cfg.Slide, drop: cfg.LatePolicy == LateDrop,
		clock: map[string]int{}, decided: map[string]bool{}, val: map[string]float64{}}
	var got []*windowJob
	for _, it := range feed {
		js, err := w.push(it)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, js...)
		v, _ := it.Evidence[ontology.HitRatio].AsFloat()
		m.push(it.ID.Value(), v)
	}
	got = append(got, w.flush()...)
	m.flush()
	names := func(items []evidence.Item) []string {
		out := make([]string, len(items))
		for i, it := range items {
			out[i] = it.Value()
		}
		return out
	}
	if len(got) != len(m.jobs) {
		t.Fatalf("window %d/%d: %d jobs, model %d", cfg.Window, cfg.Slide, len(got), len(m.jobs))
	}
	for i, j := range got {
		want := m.jobs[i]
		vals := make([]float64, len(j.items))
		for x, it := range j.items {
			vals[x], _ = j.m.Get(it, ontology.HitRatio).AsFloat()
		}
		if j.seq != i || !slices.Equal(names(j.items), want.items) || !slices.Equal(names(j.decide), want.decide) ||
			!slices.Equal(vals, want.vals) || j.partial != want.partial || j.late != want.late || j.kind != "" {
			t.Fatalf("window %d/%d, job %d:\n got seq %d items %v decide %v vals %v partial %v late %v kind %q\nwant items %v decide %v vals %v partial %v late %v",
				cfg.Window, cfg.Slide, i, j.seq, names(j.items), names(j.decide), vals, j.partial, j.late, j.kind,
				want.items, want.decide, want.vals, want.partial, want.late)
		}
	}
}

// TestCountWindowsMatchModel checks the windower's count windows against
// the independent model over random feeds.
func TestCountWindowsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 3+rng.Intn(200))
		rng.Read(data)
		checkCountWindows(t, data)
	}
}

// FuzzCountWindows is TestCountWindowsMatchModel driven by the fuzzer.
func FuzzCountWindows(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0, 0, 0, 0, 200, 0, 0, 150, 97, 0, 0, 0, 0, 120})
	f.Add([]byte{7, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 96, 0, 130})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		checkCountWindows(t, data)
	})
}

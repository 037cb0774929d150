package stream

import (
	"fmt"
	"math"
	"slices"
	"time"

	"qurator/internal/evidence"
)

// accRebuildEvery is how many fires the windower lets pass before
// rebuilding its incremental Welford accumulators from the live map.
// Add/Remove cycles accumulate floating-point error without bound on a
// long-lived sliding window; a periodic rebuild (plus an immediate one
// whenever a downdate detects drift, see Accumulator.Tainted) keeps the
// error bounded by one window's worth of arithmetic instead of the
// stream's.
const accRebuildEvery = 256

// countRetention is how many slides past its end a fired count window is
// retained, to route re-arrivals of its items as late data.
const countRetention = 4

// windower groups a stream's items into windows over an int64 clock: the
// item's event time in Unix nanoseconds for event-time windows, and for
// count windows the arrival index of the item's first fresh arrival. An
// item keeps its clock while it is tracked — while the live map or a
// retained window holds it — so a duplicate refreshes it in place and a
// re-arrival routes to the windows that hold it. Count
// windows are duration windows over the arrival clock: they start at
// clock 0, and the watermark is the last clock + 1, so a window fires on
// the arrival that fills it.
//
// Every open window's items live in one annotation map, written once per
// arrival, with one Welford accumulator per numeric evidence key over it
// — O(1) work per arriving or evicted item and value. A window whose
// items are the whole live map (always, for count windows) fires as an
// O(1) clone of it with the accumulators' statistics; any other window,
// and every session, fires as a projection of its items with statistics
// recomputed.
//
// Decide-once semantics: the first window to fire holding an item
// decides it; later windows holding it re-enact it purely as context for
// the collection-scoped QAs.
//
// Late data: a fired window is retained until the watermark passes its
// end + the retention horizon (AllowedLateness for event time, four
// slides for count windows). An item arriving for a retained window
// re-fires it as a superseding emission: the fired map, which is never
// mutated, is cloned with the item set, and the window's decisions (plus
// the item, if it is new and undecided) re-emit, linked to the emission
// they replace. An item no window can take any more is dropped and
// counted.
type windower struct {
	view    string
	kind    string       // event-time window kind; "" for count windows
	key     evidence.Key // event-time evidence key
	size    int64        // duration window width; 0 for sessions
	slide   int64
	gap     int64 // session gap; 0 for duration windows
	lag     int64 // the watermark trails the newest clock by lag
	horizon int64 // retention past a fired window's end; 0 = none
	drop    bool  // LateDrop: late items do not supersede

	wm    int64 // low watermark: a window ending at or before it fires
	seq   int
	fires int

	live    *evidence.Map
	held    []*tracked // the tracking of each live item, in live order
	liveMax int64      // the newest clock the live map has held
	accs    map[evidence.Key]*evidence.Accumulator

	open     []*window // by start; open windows end in the same order
	retained []*window // fired windows, in fire order

	// track holds the clock and decided flag of every item the live map
	// or a retained window holds; an item is forgotten when the last of
	// them lets it go.
	track map[evidence.Item]*tracked
}

// tracked is one item's clock, decided flag, live-map membership and
// number of retained windows holding it.
type tracked struct {
	clock   int64
	refs    int
	decided bool
	live    bool
}

// window is one clock range, open or retained after its fire.
type window struct {
	start, end int64
	ids        []evidence.Item // an open session's items, session by session

	// Set at fire: the fired map (replaced on a re-fire, never mutated),
	// the tracking of its items in map order, the items the window
	// decides, its fire generation and last job.
	m      *evidence.Map
	trs    []*tracked
	decide []evidence.Item
	gen    int
	last   *windowJob
}

// newWindower returns the windower for a normalised configuration.
func newWindower(cfg Config, view string) *windower {
	// A count stream tracks and holds at least a window of items; sizing
	// for one up front spares the growth. Window is 0 for event time.
	n := min(cfg.Window, 4096)
	w := &windower{
		view:    view,
		drop:    cfg.LatePolicy == LateDrop,
		live:    evidence.NewMap(),
		held:    make([]*tracked, 0, n),
		liveMax: math.MinInt64,
		accs:    make(map[evidence.Key]*evidence.Accumulator),
		track:   make(map[evidence.Item]*tracked, n),
	}
	switch {
	case !cfg.EventTime():
		w.size, w.slide = int64(cfg.Window), int64(cfg.Slide)
		w.lag = -1 // the watermark is the last clock + 1
		w.horizon = countRetention * w.slide
		return w
	case cfg.SessionGap > 0:
		w.kind, w.gap = KindSession, int64(cfg.SessionGap)
	case cfg.SlideDuration == cfg.WindowDuration:
		w.kind = KindTumbling
	default:
		w.kind = KindSliding
	}
	w.size, w.slide = int64(cfg.WindowDuration), int64(cfg.SlideDuration)
	w.key, w.lag, w.wm = cfg.EventTimeKey, int64(cfg.MaxOutOfOrder), math.MinInt64
	// An event time alone shows an item late, so under the drop policy no
	// event-time window is retained. Count windows always are: a count
	// clock lives only while its item is tracked.
	if !w.drop {
		w.horizon = int64(cfg.AllowedLateness)
	}
	return w
}

// push routes one item into its windows and returns the jobs it fires,
// in emission order: superseding re-fires of retained windows, or the
// windows the watermark advance closes.
func (w *windower) push(it Item) ([]*windowJob, error) {
	tr, known := w.track[it.ID]
	var c int64
	if w.kind != "" {
		v, ok := it.Evidence[w.key]
		if !ok || v.IsNull() {
			return nil, fmt.Errorf("item %s lacks event-time evidence %s", it.ID.Value(), w.key.Value())
		}
		t, err := eventTimeOf(v)
		if err != nil {
			return nil, fmt.Errorf("item %s event time: %w", it.ID.Value(), err)
		}
		c = t
	} else {
		c = w.wm
	}
	if !known {
		tr = &tracked{clock: c}
		w.track[it.ID] = tr
	}
	c = tr.clock
	// Late data: the retained windows covering the clock re-fire — for a
	// session only the first, as an item belongs to one session.
	var jobs []*windowJob
	for _, fw := range w.retained {
		if fw.start <= c && c < fw.end && !w.drop && (w.gap == 0 || jobs == nil) {
			jobs = append(jobs, w.supersede(fw, it, tr))
		}
	}
	held := false
	if w.gap == 0 {
		held = w.duration(it, tr)
	} else if jobs == nil {
		w.session(it, tr)
		held = true
	}
	if jobs == nil && !held {
		streamLateItems.With(w.view, "dropped").Inc()
		if !known {
			delete(w.track, it.ID)
		}
		return nil, nil
	}
	if wm := c - w.lag; wm > w.wm {
		w.wm = wm
	}
	if w.kind != "" {
		streamWatermark.With(w.view).Set(float64(w.wm) / 1e9)
	}
	return w.advance(jobs), nil
}

// duration holds an item in the open tumbling or sliding windows covering
// its clock, opening those the watermark has not passed, and reports
// whether any window holds it.
func (w *windower) duration(it Item, tr *tracked) bool {
	// The windows covering c start at the multiples of slide in
	// (c − size, c]; count windows start at the first item, clock 0.
	c := tr.clock
	last := floorDiv(c, w.slide) * w.slide
	first := (floorDiv(c-w.size, w.slide) + 1) * w.slide
	if w.kind == "" {
		first = max(first, 0)
	}
	i := len(w.open) // the first open window starting at or after first
	for i > 0 && w.open[i-1].start >= first {
		i--
	}
	held := false
	for s := first; s <= last; s += w.slide {
		if i == len(w.open) || w.open[i].start != s {
			if s+w.size <= w.wm {
				continue // fired already
			}
			w.open = slices.Insert(w.open, i, &window{start: s, end: s + w.size})
		}
		i++
		held = true
	}
	if held {
		w.hold(it, tr)
	}
	return held
}

// session holds an item in the open session within gap of its clock:
// every such session merges with it into one range, or a new one opens.
// A merged session lists the items of the earliest session first, then
// those of each later one in turn.
func (w *windower) session(it Item, tr *tracked) {
	c := tr.clock
	// Open sessions are disjoint, so those within gap of c are a run.
	i := len(w.open)
	for i > 0 && w.open[i-1].end > c {
		i--
	}
	j := i
	for j < len(w.open) && w.open[j].start < c+w.gap {
		j++
	}
	if i == j {
		w.open = slices.Insert(w.open, i, &window{start: c, end: c + w.gap})
	} else {
		w.open[i].end = w.open[j-1].end
		for _, s := range w.open[i+1 : j] {
			w.open[i].ids = append(w.open[i].ids, s.ids...)
		}
		w.open = slices.Delete(w.open, i+1, j)
	}
	win := w.open[i]
	win.start, win.end = min(win.start, c), max(win.end, c+w.gap)
	if !tr.live {
		win.ids = append(win.ids, it.ID)
	}
	w.hold(it, tr)
}

// hold writes an item into the live map, keeping the accumulators in
// step: a refreshed item's stale numeric values are retracted first.
func (w *windower) hold(it Item, tr *tracked) {
	if tr.live {
		for k, v := range it.Evidence {
			if v.IsNull() {
				continue // SetRow won't overwrite with a Null
			}
			if old, ok := w.live.Get(it.ID, k).AsFloat(); ok {
				winAcc(w.accs, k).Remove(old)
			}
		}
	} else {
		tr.live = true
		w.held = append(w.held, tr)
		w.liveMax = max(w.liveMax, tr.clock)
	}
	w.live.SetRow(it.ID, it.Evidence)
	for k, v := range it.Evidence {
		if f, ok := v.AsFloat(); ok {
			winAcc(w.accs, k).Add(f)
		}
	}
}

// flush fires what is still open when the input closes, as partial
// windows: every open event-time window, in end order, but only the
// earliest count window, and only if it holds an undecided item.
func (w *windower) flush() []*windowJob {
	var jobs []*windowJob
	for len(w.open) > 0 {
		if w.kind == "" && !slices.ContainsFunc(w.held, func(tr *tracked) bool { return !tr.decided }) {
			break
		}
		win := w.open[0]
		w.open = slices.Delete(w.open, 0, 1)
		jobs = append(jobs, w.fire(win, true))
		if w.kind == "" {
			break
		}
	}
	return jobs
}

// advance fires every open window the watermark has passed and expires
// retained windows past their horizon, forgetting the items no window
// holds any more.
func (w *windower) advance(jobs []*windowJob) []*windowJob {
	for len(w.open) > 0 && w.open[0].end <= w.wm {
		win := w.open[0]
		w.open = slices.Delete(w.open, 0, 1)
		jobs = append(jobs, w.fire(win, false))
	}
	keep := w.retained[:0]
	for _, fw := range w.retained {
		if w.wm < fw.end+w.horizon {
			keep = append(keep, fw)
			continue
		}
		for i, tr := range fw.trs {
			if tr.refs--; tr.refs == 0 && !tr.live {
				delete(w.track, fw.m.ItemAt(i))
			}
		}
	}
	clear(w.retained[len(keep):])
	w.retained = keep
	return jobs
}

// fire emits a window that has left the open set, decides its undecided
// items, retains it for late data, and evicts from the live map the
// items no open window holds any more.
func (w *windower) fire(win *window, partial bool) *windowJob {
	// The earliest open window fires first, so no live item precedes it;
	// when none lies past its end either, the live map is the window. A
	// session keeps its own item order.
	j := &windowJob{partial: partial}
	exact := w.liveMax < win.end && win.ids == nil
	trs := w.held
	switch {
	case exact:
		j.items, j.m, j.stats = w.live.Items(), w.live.Clone(), snapshotAccs(w.accs)
	case win.ids != nil:
		j.items, trs = win.ids, make([]*tracked, len(win.ids))
		for x, id := range win.ids {
			trs[x] = w.track[id]
		}
	default:
		j.items = make([]evidence.Item, 0, w.live.Len())
		trs = make([]*tracked, 0, w.live.Len())
		for p, tr := range w.held {
			if win.start <= tr.clock && tr.clock < win.end {
				j.items = append(j.items, w.live.ItemAt(p))
				trs = append(trs, tr)
			}
		}
	}
	// The undecided items are decided here. For an in-order feed they
	// are a suffix of the window's items, which the job then shares.
	from, suffix := -1, true
	for x, tr := range trs {
		switch {
		case tr.decided && from >= 0 && suffix:
			suffix = false
			j.decide = slices.Clone(j.items[from:x])
		case tr.decided:
			continue
		case from < 0:
			from = x
		case !suffix:
			j.decide = append(j.decide, j.items[x])
		}
		tr.decided = true
	}
	switch {
	case from < 0:
		j.decide = []evidence.Item{}
	case suffix:
		j.decide = j.items[from:]
	}
	if !exact {
		j.m = w.live.Project(j.items)
		j.stats = recomputeStats(j.m)
	}
	win.m, win.decide = j.m, j.decide
	w.stamp(j, win)
	if !partial && w.horizon > 0 {
		if exact {
			trs = slices.Clone(w.held)
		}
		for _, tr := range trs {
			tr.refs++
		}
		win.trs = trs
		w.retained = append(w.retained, win)
	}
	w.evict()
	w.fires++
	if w.fires%accRebuildEvery == 0 || w.anyTainted() {
		w.accs = rebuildAccsFrom(w.live)
	}
	return j
}

// evict drops from the live map the items no open window holds any
// more, downdating the accumulators. An open window holds every live
// item from its start on, so these are the items before the earliest
// open window; for an in-order feed they are the map's prefix, removed
// in one ordered pass.
func (w *windower) evict() {
	lo := int64(math.MaxInt64)
	if len(w.open) > 0 {
		lo = w.open[0].start
	}
	n := 0
	for n < len(w.held) && w.held[n].clock < lo {
		n++
	}
	for p := len(w.held) - 1; p > n; p-- {
		if w.held[p].clock < lo {
			id := w.unhold(p)
			w.retract(id)
			w.live.RemoveItem(id)
			w.held = slices.Delete(w.held, p, p+1)
		}
	}
	// Emptying the map, as every tumbling count fire does, resets the
	// accumulators instead of retracting each value.
	all := n == len(w.held)
	for p := 0; p < n; p++ {
		if id := w.unhold(p); !all {
			w.retract(id)
		}
	}
	w.live.RemoveFirst(n)
	w.held = slices.Delete(w.held, 0, n)
	if all {
		clear(w.accs)
		w.liveMax = math.MinInt64
	}
	// Evidence keys that stopped appearing would otherwise pin their
	// accumulators forever — a key-churn stream (every item a new key)
	// grew this map without bound.
	for k, acc := range w.accs {
		if acc.N() == 0 {
			delete(w.accs, k)
		}
	}
}

// unhold marks the live item at position p as leaving the live map and
// forgets it unless a retained window holds it.
func (w *windower) unhold(p int) evidence.Item {
	tr, id := w.held[p], w.live.ItemAt(p)
	if tr.live = false; tr.refs == 0 {
		delete(w.track, id)
	}
	return id
}

// retract takes a live item's numeric values out of the accumulators.
func (w *windower) retract(id evidence.Item) {
	for k, acc := range w.accs {
		if f, ok := w.live.Get(id, k).AsFloat(); ok {
			acc.Remove(f)
		}
	}
}

// supersede re-fires a retained window with a late arrival folded in: its
// fired map is cloned with the item set (the previous map may still be
// enacting), the window's decisions — plus the item, if it is new to the
// window and undecided — re-emit, and the job links back to the emission
// it replaces.
func (w *windower) supersede(fw *window, it Item, tr *tracked) *windowJob {
	streamLateItems.With(w.view, "superseded").Inc()
	m := fw.m.Clone()
	if !m.HasItem(it.ID) {
		fw.trs = append(fw.trs, tr)
		tr.refs++
		if !tr.decided {
			tr.decided = true
			fw.decide = append(fw.decide, it.ID)
		}
	}
	m.SetRow(it.ID, it.Evidence)
	if w.gap > 0 {
		fw.end = max(fw.end, tr.clock+w.gap)
	}
	fw.m = m
	fw.gen++
	j := &windowJob{
		items:  m.Items(),
		m:      m,
		decide: fw.decide,
		stats:  recomputeStats(m),
		late:   true,
		gen:    fw.gen,
		prev:   detach(fw.last),
	}
	return w.stamp(j, fw)
}

// stamp numbers a job, records its fire time and window identity, and
// makes it the window's last emission.
func (w *windower) stamp(j *windowJob, win *window) *windowJob {
	j.seq = w.seq
	w.seq++
	j.firedAt = time.Now()
	if w.kind != "" {
		j.kind, j.start, j.end = w.kind, time.Unix(0, win.start), time.Unix(0, win.end)
	}
	win.last = j
	return j
}

// detach shallow-copies a job with its supersession link cleared, so
// retained predecessors never form unbounded chains.
func detach(j *windowJob) *windowJob {
	if j == nil {
		return nil
	}
	c := *j
	c.prev = nil
	return &c
}

func (w *windower) anyTainted() bool {
	for _, acc := range w.accs {
		if acc.Tainted() {
			return true
		}
	}
	return false
}

// winAcc returns the accumulator for k in accs, creating it on first use.
func winAcc(accs map[evidence.Key]*evidence.Accumulator, k evidence.Key) *evidence.Accumulator {
	a := accs[k]
	if a == nil {
		a = &evidence.Accumulator{}
		accs[k] = a
	}
	return a
}

// rebuildAccsFrom derives fresh accumulators from the live map, resetting
// the floating-point drift that unbounded Add/Remove cycles accumulate.
func rebuildAccsFrom(m *evidence.Map) map[evidence.Key]*evidence.Accumulator {
	accs := make(map[evidence.Key]*evidence.Accumulator)
	for _, id := range m.Items() {
		for k, v := range m.Row(id) {
			if f, ok := v.AsFloat(); ok {
				winAcc(accs, k).Add(f)
			}
		}
	}
	return accs
}

// snapshotAccs freezes the accumulators into job statistics, leaving out
// keys whose statistics are not finite.
func snapshotAccs(accs map[evidence.Key]*evidence.Accumulator) map[string]WindowStats {
	var out map[string]WindowStats
	for k, acc := range accs {
		if acc.N() == 0 {
			continue
		}
		lo, hi := acc.Thresholds()
		st := WindowStats{N: acc.N(), Mean: acc.Mean(), StdDev: acc.StdDev(), Lo: lo, Hi: hi}
		if !st.finite() {
			continue
		}
		if out == nil {
			out = make(map[string]WindowStats, len(accs))
		}
		out[k.Value()] = st
	}
	return out
}

// recomputeStats derives window statistics by a full scan of a window
// map — the project and re-fire paths, which no accumulator tracks. Like
// snapshotAccs it leaves out keys whose statistics are not finite.
func recomputeStats(m *evidence.Map) map[string]WindowStats {
	var out map[string]WindowStats
	for _, k := range m.Keys() {
		st := m.ColumnStats(k)
		if st.N == 0 {
			continue
		}
		ws := WindowStats{
			N: st.N, Mean: st.Mean, StdDev: st.StdDev,
			Lo: st.Mean - st.StdDev, Hi: st.Mean + st.StdDev,
		}
		if !ws.finite() {
			continue
		}
		if out == nil {
			out = make(map[string]WindowStats)
		}
		out[k.Value()] = ws
	}
	return out
}

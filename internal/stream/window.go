package stream

import (
	"time"

	"qurator/internal/evidence"
)

// windowPolicy is the windowing strategy behind the streaming enactor's
// ingest stage: count-based (windower) or event-time (eventWindower).
// push may fire any number of windows for one arriving item — an
// event-time watermark advance can close several at once, and a late
// arrival can re-fire an already-emitted window — so it returns a slice,
// in emission order. flush fires whatever is still open when the input
// closes.
type windowPolicy interface {
	push(it Item) ([]*windowJob, error)
	flush() []*windowJob
}

// accRebuildEvery is how many fires a count windower lets pass before
// rebuilding its incremental Welford accumulators from the live window.
// Add/Remove cycles accumulate floating-point error without bound on a
// long-lived sliding window; a periodic rebuild (plus an immediate one
// whenever a downdate detects drift, see Accumulator.Tainted) keeps the
// error bounded by one window's worth of arithmetic instead of the
// stream's.
const accRebuildEvery = 256

// defaultLateRetention is how many fired windows a count windower keeps
// around to route re-arrivals of already-decided items as late data.
const defaultLateRetention = 4

// windower implements the count-based windowing policy. It maintains the
// live window as an annotation map (so inline evidence rides along at no
// extra cost) plus one incremental Welford accumulator per numeric inline
// evidence key — O(1) work per arriving or evicted item and value.
//
// Decide-once semantics: every item is decided by exactly one window —
// the first complete window containing it. The first fire decides all
// Window items; each later fire decides only the Slide newest, with the
// Window−Slide older items re-enacted purely as statistical context for
// the collection-scoped QAs. Tumbling windows (Slide == Window) decide
// every item they contain.
//
// Late data: a fired window is retained (content and decided set) for the
// last LateRetention fires. An item that was evicted from the live window
// and re-arrives is routed back to the retained window that decided it —
// a superseding re-fire carrying the refreshed evidence, linked to the
// original emission — instead of being mistaken for a fresh item and
// silently decided twice. Re-arrivals older than the retention horizon
// fall back to fresh-item handling (the horizon is the documented bound).
type windower struct {
	size  int
	slide int
	view  string

	live      *evidence.Map
	undecided int // trailing items not yet decided by any fire
	seq       int
	fires     int

	accs map[evidence.Key]*evidence.Accumulator

	latePolicy LatePolicy
	retention  int
	retained   []*firedWindow
	decidedBy  map[evidence.Item]*firedWindow
}

// firedWindow is the retained snapshot of an emitted count window: enough
// to re-enact it when one of its items re-arrives late.
type firedWindow struct {
	m       *evidence.Map   // window content, replaced (never mutated) by late arrivals
	items   []evidence.Item // arrival order at fire time
	decided []evidence.Item // the items THIS window decided
	gen     int             // fire generation: 0 original, 1+ superseding
	last    *windowJob      // content of the most recent emission
}

func newWindower(cfg Config, view string) *windower {
	size, slide := cfg.Window, cfg.Slide
	if slide <= 0 {
		slide = size
	}
	retention := cfg.LateRetention
	if retention == 0 {
		retention = defaultLateRetention
	}
	return &windower{
		size:       size,
		slide:      slide,
		view:       view,
		live:       evidence.NewMap(),
		accs:       make(map[evidence.Key]*evidence.Accumulator),
		latePolicy: cfg.LatePolicy,
		retention:  retention,
		decidedBy:  make(map[evidence.Item]*firedWindow),
	}
}

// push adds one item to the live window and returns the jobs it fires. A
// re-arrival of an item already in the live window refreshes its evidence
// without growing the window; a re-arrival of an item already decided by
// a retained window is late data and re-fires that window.
func (w *windower) push(it Item) ([]*windowJob, error) {
	fresh := !w.live.HasItem(it.ID)
	if fresh {
		if fw := w.decidedBy[it.ID]; fw != nil {
			return w.lateArrival(fw, it), nil
		}
	} else {
		// Retract the stale numeric contributions before the row update.
		for k, v := range it.Evidence {
			if v.IsNull() {
				continue // SetRow won't overwrite with a Null
			}
			if old, ok := w.live.Get(it.ID, k).AsFloat(); ok {
				winAcc(w.accs, k).Remove(old)
			}
		}
	}
	w.live.SetRow(it.ID, it.Evidence)
	for k, v := range it.Evidence {
		if f, ok := v.AsFloat(); ok {
			winAcc(w.accs, k).Add(f)
		}
	}
	if fresh {
		w.undecided++
	}
	if w.live.Len() >= w.size && w.undecided >= w.slide {
		return []*windowJob{w.fire(false)}, nil
	}
	return nil, nil
}

// flush returns the final partial window, or nil if nothing is pending.
func (w *windower) flush() []*windowJob {
	if w.undecided == 0 {
		return nil
	}
	return []*windowJob{w.fire(true)}
}

// lateArrival routes a re-arrival of an already-decided item: under the
// supersede policy the window that decided it re-fires with the refreshed
// evidence, linked to its previous emission; under the drop policy the
// re-arrival is counted and discarded.
func (w *windower) lateArrival(fw *firedWindow, it Item) []*windowJob {
	if w.latePolicy == LateDrop {
		streamLateItems.With(w.view, "dropped").Inc()
		return nil
	}
	streamLateItems.With(w.view, "superseded").Inc()
	// Copy on write: fw.m is the map of an emitted job, which may still be
	// enacting, so the refreshed content goes into a clone that becomes
	// both the retained map and the new job's.
	m := fw.m.Clone()
	m.SetRow(it.ID, it.Evidence)
	fw.m = m
	fw.gen++
	j := &windowJob{
		seq:     w.seq,
		items:   fw.items,
		m:       m,
		decide:  fw.decided,
		stats:   recomputeStats(m),
		firedAt: time.Now(),
		late:    true,
		gen:     fw.gen,
		prev:    detach(fw.last),
	}
	w.seq++
	fw.last = j
	return []*windowJob{j}
}

// fire snapshots the live window into a job and slides it forward.
func (w *windower) fire(partial bool) *windowJob {
	items := w.live.Items()
	j := &windowJob{
		seq:        w.seq,
		items:      items,
		m:          w.live.Clone(),
		decideFrom: len(items) - w.undecided,
		partial:    partial,
		stats:      snapshotAccs(w.accs),
		firedAt:    time.Now(),
	}
	w.seq++
	w.undecided = 0
	if !partial {
		w.retain(j)
	}
	// Evict the oldest slide-worth of items so the next window overlaps
	// the current one by Window−Slide items (none, for tumbling windows).
	evict := w.slide
	if partial || evict > w.live.Len() {
		evict = w.live.Len()
	}
	// items is already an arrival-ordered copy of the window, so downdate
	// the accumulators from its prefix (the old loop called Items() — a
	// full copy — once per evicted item) and drop the prefix in a single
	// ordered eviction, keeping a fire O(window) instead of O(window²).
	for _, old := range items[:evict] {
		for k, acc := range w.accs {
			if f, ok := w.live.Get(old, k).AsFloat(); ok {
				acc.Remove(f)
			}
		}
	}
	w.live.RemoveFirst(evict)
	// Evidence keys that stopped appearing would otherwise pin their
	// accumulators forever — a key-churn stream (every item a new key)
	// grew this map without bound.
	for k, acc := range w.accs {
		if acc.N() == 0 {
			delete(w.accs, k)
		}
	}
	w.fires++
	if w.fires%accRebuildEvery == 0 || w.anyTainted() {
		w.accs = rebuildAccsFrom(w.live)
	}
	return j
}

// retain remembers a fired window for late-data routing and expires the
// oldest beyond the retention horizon. It shares the job's map: nothing
// mutates a fired map in place (lateArrival copies on write).
func (w *windower) retain(j *windowJob) {
	fw := &firedWindow{
		m:       j.m,
		items:   j.items,
		decided: j.items[j.decideFrom:],
		last:    detach(j),
	}
	for _, d := range fw.decided {
		w.decidedBy[d] = fw
	}
	w.retained = append(w.retained, fw)
	for len(w.retained) > w.retention {
		old := w.retained[0]
		w.retained = w.retained[1:]
		for _, d := range old.decided {
			if w.decidedBy[d] == old {
				delete(w.decidedBy, d)
			}
		}
	}
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

// recomputeStats derives window statistics by a full scan of the window
// map — the re-fire path, where no incremental accumulators are live.
func recomputeStats(m *evidence.Map) map[string]WindowStats {
	var out map[string]WindowStats
	for _, k := range m.Keys() {
		st := m.ColumnStats(k)
		if st.N == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]WindowStats)
		}
		out[k.Value()] = WindowStats{
			N: st.N, Mean: st.Mean, StdDev: st.StdDev,
			Lo: st.Mean - st.StdDev, Hi: st.Mean + st.StdDev,
		}
	}
	return out
}

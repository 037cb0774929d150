package stream

import (
	"fmt"
	"math"
	"testing"

	"qurator/internal/evidence"
	"qurator/internal/rdf"
)

func wbItem(i int, key evidence.Key, v float64) Item {
	return Item{
		ID:       rdf.IRI(fmt.Sprintf("urn:item:%d", i)),
		Evidence: map[evidence.Key]evidence.Value{key: evidence.Float(v)},
	}
}

// TestAccRebuildBoundsFloatDrift is the satellite-1 regression: a
// long-lived sliding window performs one Welford Add and one Remove per
// item, and the floating-point error of those cycles used to accumulate
// without bound — after enough slides the reported stddev of a
// large-offset series drifted visibly from the true value. The periodic
// rebuild (plus the taint-triggered one) keeps the accumulator within
// numerical noise of an exact recomputation even after a million slides.
func TestAccRebuildBoundsFloatDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-slide soak")
	}
	key := evidence.Key(rdf.IRI("urn:q:Offset"))
	w := newWindower(Config{Window: 8, Slide: 1}, "soak")
	const n = 1_000_000
	// Large common offset + small signal: the catastrophic-cancellation
	// regime where incremental variance loses precision fastest.
	val := func(i int) float64 { return 1e9 + float64(i%17) }
	for i := 0; i < n; i++ {
		if _, err := w.push(wbItem(i, key, val(i))); err != nil {
			t.Fatal(err)
		}
	}
	acc := w.accs[key]
	if acc == nil {
		t.Fatal("accumulator vanished")
	}
	exact := w.live.ColumnStats(key)
	if acc.N() != exact.N {
		t.Fatalf("acc N = %d, want %d", acc.N(), exact.N)
	}
	if d := math.Abs(acc.Mean() - exact.Mean); d > 1e-3 {
		t.Errorf("mean drifted by %g after %d slides (acc %v, exact %v)", d, n, acc.Mean(), exact.Mean)
	}
	if d := math.Abs(acc.StdDev() - exact.StdDev); d > 1e-3 {
		t.Errorf("stddev drifted by %g after %d slides (acc %v, exact %v)", d, n, acc.StdDev(), exact.StdDev)
	}
}

// TestAccsMapBoundedUnderKeyChurn is the satellite-2 regression: a
// stream where every item carries a fresh evidence key used to grow the
// windower's accumulator map one entry per key, forever — the zero-N
// accumulators of evicted keys were never dropped. The map must stay
// bounded by the live window, not the stream history.
func TestAccsMapBoundedUnderKeyChurn(t *testing.T) {
	w := newWindower(Config{Window: 4, Slide: 4}, "churn")
	const n = 1000
	for i := 0; i < n; i++ {
		key := evidence.Key(rdf.IRI(fmt.Sprintf("urn:q:churn:%d", i)))
		if _, err := w.push(wbItem(i, key, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The live window holds at most Window items, each with one key; the
	// accumulator map must not exceed that (modulo the not-yet-fired tail).
	if got := len(w.accs); got > 8 {
		t.Fatalf("accs map grew to %d entries under key churn, want ≤ 8", got)
	}
}

// TestEvictedReArrivalRoutedAsLate is the satellite-3 regression: an
// item evicted from the live window that re-arrives used to be counted
// fresh — filling a slot in the next window and getting silently decided
// a second time. It must instead be routed to the retained window that
// decided it, as a superseding late re-fire.
func TestEvictedReArrivalRoutedAsLate(t *testing.T) {
	key := evidence.Key(rdf.IRI("urn:q:HitRatio"))
	w := newWindower(Config{Window: 2, Slide: 2}, "late")
	var fired []*windowJob
	for i := 0; i < 2; i++ {
		js, err := w.push(wbItem(i, key, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, js...)
	}
	if len(fired) != 1 || w.live.Len() != 0 {
		t.Fatalf("setup: fires=%d live=%d, want 1 fire and an empty live window", len(fired), w.live.Len())
	}

	// Item 0 was decided by the fired window and evicted; its re-arrival
	// is late data, not a fresh item.
	js, err := w.push(wbItem(0, key, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 1 {
		t.Fatalf("re-arrival fired %d jobs, want 1 superseding re-fire", len(js))
	}
	re := js[0]
	if !re.late || re.gen != 1 || re.prev == nil {
		t.Fatalf("re-fire = late=%v gen=%d prev=%v, want a gen-1 superseding job", re.late, re.gen, re.prev)
	}
	if got := re.decide; len(got) != 2 {
		t.Fatalf("re-fire decides %d items, want the original 2", len(got))
	}
	if v, ok := re.m.Get(rdf.IRI("urn:item:0"), key).AsFloat(); !ok || v != 42 {
		t.Errorf("re-fire content lacks the refreshed evidence (got %v, %v)", v, ok)
	}
	if w.live.Len() != 0 {
		t.Error("late re-arrival leaked into the live window")
	}
	// The journal key of the re-fire must differ from the original even
	// for identical content — the generation is part of the identity.
	e := &Enactor{views: []streamView{{name: "late"}}}
	if k0, k1 := e.windowKey("late", *fired[0]), e.windowKey("late", *re); k0 == k1 {
		t.Error("superseding re-fire maps to the original journal key")
	}

	// Under the drop policy the re-arrival is discarded instead.
	wd := newWindower(Config{Window: 2, Slide: 2, LatePolicy: LateDrop}, "latedrop")
	for i := 0; i < 2; i++ {
		if _, err := wd.push(wbItem(i, key, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	js, err = wd.push(wbItem(0, key, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 0 || wd.live.Len() != 0 {
		t.Fatalf("LateDrop: jobs=%d live=%d, want the re-arrival discarded", len(js), wd.live.Len())
	}
}

// TestLateRetentionHorizonExpires pins the documented bound: re-arrivals
// older than the four-slide retention horizon fall back to fresh-item
// handling.
func TestLateRetentionHorizonExpires(t *testing.T) {
	key := evidence.Key(rdf.IRI("urn:q:HitRatio"))
	w := newWindower(Config{Window: 2, Slide: 2}, "horizon")
	for i := 0; i < 10; i++ { // five fires; the horizon keeps the last four
		if _, err := w.push(wbItem(i, key, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.retained) != 4 {
		t.Fatalf("retained %d windows, want 4", len(w.retained))
	}
	// Item 0's window expired from retention: its re-arrival is fresh.
	js, err := w.push(wbItem(0, key, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 0 {
		t.Fatalf("expired re-arrival fired %d jobs, want none (fresh handling)", len(js))
	}
	if w.live.Len() != 1 {
		t.Fatalf("fresh-handled re-arrival missing from the live window (len %d)", w.live.Len())
	}
	// Item 2's window is still retained: its re-arrival is late.
	js, err = w.push(wbItem(2, key, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 1 || !js[0].late {
		t.Fatalf("retained re-arrival = %d jobs, want 1 late re-fire", len(js))
	}
}

// TestWideCountWindowIsCheap: a count window at the 2⁶⁰ bound sliding by
// one item opens a window per arrival and walks only the windows from
// clock 0, not the 2⁶⁰ starts below it; the flush fires the earliest,
// which holds every item.
func TestWideCountWindowIsCheap(t *testing.T) {
	cfg, err := normalise(Config{Window: maxSpan, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := newWindower(cfg, "wide")
	key := evidence.Key(rdf.IRI("urn:q:V"))
	const n = 200
	for i := 0; i < n; i++ {
		jobs, err := w.push(wbItem(i, key, float64(i)))
		if err != nil || len(jobs) != 0 {
			t.Fatalf("push %d = %d jobs, %v", i, len(jobs), err)
		}
	}
	if len(w.open) != n {
		t.Errorf("%d open windows, want %d", len(w.open), n)
	}
	jobs := w.flush()
	if len(jobs) != 1 || len(jobs[0].items) != n || len(jobs[0].decide) != n || !jobs[0].partial {
		t.Fatalf("flush = %d jobs, want one partial window deciding all %d items", len(jobs), n)
	}
}

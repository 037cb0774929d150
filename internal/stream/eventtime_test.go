package stream_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/stream"
)

// etItem is a synthetic hit stamped with q:ObservedAt event time (unix
// milliseconds).
func etItem(i int, ms int64) stream.Item {
	return stream.Item{
		ID: hit(i),
		Evidence: map[evidence.Key]evidence.Value{
			ontology.ObservedAt: evidence.Int(ms),
		},
	}
}

// enactItems feeds the given items through a fresh enactor in order.
func enactItems(t *testing.T, cfg stream.Config, items []stream.Item) []stream.WindowResult {
	t.Helper()
	results, err := tryEnactItems(t, cfg, items)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return results
}

func tryEnactItems(t *testing.T, cfg stream.Config, items []stream.Item) ([]stream.WindowResult, error) {
	t.Helper()
	e, err := stream.New(compilePaperView(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		for _, it := range items {
			in <- it
		}
	}()
	var results []stream.WindowResult
	for r := range out {
		results = append(results, r)
	}
	return results, <-done
}

func eventCfg(cfg stream.Config) stream.Config {
	cfg.EventTimeKey = ontology.ObservedAt
	return cfg
}

func TestEventTumblingWindows(t *testing.T) {
	// Items every 25ms; 100ms tumbling windows on an in-order feed with a
	// zero out-of-order bound: [0,100) holds items 0–3 and fires the
	// moment item 4 (t=100) arrives; [100,200) holds 4–7; 8–9 flush as a
	// partial window.
	var items []stream.Item
	for i := 0; i < 10; i++ {
		items = append(items, etItem(i, int64(i)*25))
	}
	results := enactItems(t, eventCfg(stream.Config{WindowDuration: 100 * time.Millisecond}), items)
	if len(results) != 3 {
		t.Fatalf("got %d windows, want 3", len(results))
	}
	for i, r := range results {
		if r.Kind != stream.KindTumbling {
			t.Errorf("window %d kind = %q, want tumbling", i, r.Kind)
		}
		if r.Start != int64(i)*100 || r.End != int64(i+1)*100 {
			t.Errorf("window %d bounds = [%d, %d), want [%d, %d)", i, r.Start, r.End, i*100, (i+1)*100)
		}
	}
	if results[2].Partial != true {
		t.Error("final window should be the partial flush")
	}
	decided := decidedItems(t, results)
	if len(decided) != 10 {
		t.Fatalf("decided %d items, want 10", len(decided))
	}
	for i, want := range []int{4, 4, 2} {
		if len(results[i].Decisions) != want {
			t.Errorf("window %d decided %d, want %d", i, len(results[i].Decisions), want)
		}
	}
}

func TestEventSlidingWindowsDecideOnce(t *testing.T) {
	// 100ms windows sliding by 50ms: every item (but those in the very
	// first half-window) belongs to two windows, yet is decided exactly
	// once — by the earliest window containing it; the later window
	// re-enacts it as context only.
	var items []stream.Item
	for i := 0; i < 12; i++ {
		items = append(items, etItem(i, int64(i)*25))
	}
	results := enactItems(t, eventCfg(stream.Config{
		WindowDuration: 100 * time.Millisecond,
		SlideDuration:  50 * time.Millisecond,
	}), items)
	decided := decidedItems(t, results) // fails on any double decision
	if len(decided) != 12 {
		t.Fatalf("decided %d items, want 12", len(decided))
	}
	for _, r := range results {
		if r.Kind != stream.KindSliding {
			t.Errorf("window %d kind = %q, want sliding", r.Seq, r.Kind)
		}
		if !r.Partial && r.Size <= len(r.Decisions) && r.Start > 0 {
			t.Errorf("window %d should carry context beyond its %d decisions (size %d)",
				r.Seq, len(r.Decisions), r.Size)
		}
	}
}

func TestEventSessionWindows(t *testing.T) {
	// Two bursts separated by more than the 100ms gap → two sessions.
	items := []stream.Item{
		etItem(0, 0), etItem(1, 30), etItem(2, 60),
		etItem(3, 500), etItem(4, 530),
	}
	results := enactItems(t, eventCfg(stream.Config{SessionGap: 100 * time.Millisecond}), items)
	if len(results) != 2 {
		t.Fatalf("got %d session windows, want 2", len(results))
	}
	first, second := results[0], results[1]
	if first.Kind != stream.KindSession || second.Kind != stream.KindSession {
		t.Fatalf("kinds = %q, %q, want session", first.Kind, second.Kind)
	}
	if len(first.Decisions) != 3 || len(second.Decisions) != 2 {
		t.Fatalf("session sizes = %d, %d, want 3, 2", len(first.Decisions), len(second.Decisions))
	}
	// A session's end extends gap past its last event.
	if first.Start != 0 || first.End != 160 {
		t.Errorf("first session bounds = [%d, %d), want [0, 160)", first.Start, first.End)
	}
	if !second.Partial {
		t.Error("second session should flush as partial (watermark never passed it)")
	}
}

func TestWatermarkHoldsBackFires(t *testing.T) {
	// With a 50ms out-of-order bound, the watermark trails the max event
	// time by 50ms: window [0,100) must not fire at t=120 (wm=70) and
	// must fire at t=160 (wm=110). Out-of-order items within the bound
	// are windowed as if the feed were sorted.
	items := []stream.Item{
		etItem(0, 0), etItem(1, 30),
		etItem(2, 120), // wm = 70: [0,100) still open
		etItem(3, 20),  // out of order, within bound: joins [0,100)
		etItem(4, 160), // wm = 110: [0,100) fires with 0,1,3
	}
	results := enactItems(t, eventCfg(stream.Config{
		WindowDuration: 100 * time.Millisecond,
		MaxOutOfOrder:  50 * time.Millisecond,
	}), items)
	if len(results) != 2 {
		t.Fatalf("got %d windows, want 2 (one fired, one flushed)", len(results))
	}
	fired := results[0]
	if fired.Partial || fired.Start != 0 || fired.End != 100 {
		t.Fatalf("first fired window = %+v, want complete [0, 100)", fired)
	}
	if len(fired.Decisions) != 3 {
		t.Fatalf("window [0,100) decided %d items, want 3 (incl. the out-of-order one)", len(fired.Decisions))
	}
	if len(decidedItems(t, results)) != 5 {
		t.Error("all 5 items must be decided across fire + flush")
	}
}

func TestLateItemSupersedesWindow(t *testing.T) {
	items := []stream.Item{
		etItem(0, 0), etItem(1, 10),
		etItem(2, 150), // fires [0,100) deciding items 0,1
		etItem(3, 50),  // below the watermark: late data for [0,100)
	}
	results := enactItems(t, eventCfg(stream.Config{
		WindowDuration:  100 * time.Millisecond,
		AllowedLateness: time.Second,
	}), items)
	// fire [0,100); superseding re-fire of [0,100); partial flush [100,200).
	if len(results) != 3 {
		t.Fatalf("got %d windows, want 3", len(results))
	}
	orig, re := results[0], results[1]
	if orig.Late || orig.Supersedes != "" {
		t.Fatalf("original emission marked late: %+v", orig)
	}
	if !re.Late {
		t.Fatalf("re-fire not marked late: %+v", re)
	}
	if re.Supersedes == "" {
		t.Fatal("superseding emission lacks the key of the emission it replaces")
	}
	if re.Start != orig.Start || re.End != orig.End {
		t.Errorf("re-fire bounds [%d, %d) differ from original [%d, %d)", re.Start, re.End, orig.Start, orig.End)
	}
	// The re-fire re-emits the original decisions plus the late item.
	if len(re.Decisions) != 3 {
		t.Fatalf("re-fire decided %d items, want 3 (2 original + late)", len(re.Decisions))
	}
	seen := map[string]bool{}
	for _, d := range re.Decisions {
		seen[d.Item] = true
	}
	for _, i := range []int{0, 1, 3} {
		if !seen[hit(i).Value()] {
			t.Errorf("re-fire decisions missing item %d", i)
		}
	}
	// The late item must not be decided again by any later window.
	for _, r := range results[2:] {
		for _, d := range r.Decisions {
			if d.Item == hit(3).Value() {
				t.Errorf("late item decided again in window %d", r.Seq)
			}
		}
	}
}

func TestLateSupersedeOfEmptyDecideSet(t *testing.T) {
	// 100ms windows sliding by 50ms. Items 0 and 1 (t=60, 70) fall in
	// [0,100) and [50,150); item 2 (t=200) fires both. [0,100) decides
	// them, so [50,150) fires deciding nothing. A re-arrival of item 0
	// supersedes both windows: [50,150)'s re-fire must still decide
	// nothing. A fresh late item 3 (t=120) then supersedes [50,150) again
	// and is its only decision.
	items := []stream.Item{
		etItem(0, 60), etItem(1, 70),
		etItem(2, 200),
		etItem(0, 60),
		etItem(3, 120),
	}
	results := enactItems(t, eventCfg(stream.Config{
		WindowDuration:  100 * time.Millisecond,
		SlideDuration:   50 * time.Millisecond,
		AllowedLateness: time.Second,
	}), items)
	var second []stream.WindowResult // emissions of [50,150), in order
	for _, r := range results {
		if r.Start == 50 && r.End == 150 {
			second = append(second, r)
		}
	}
	if len(second) != 3 {
		t.Fatalf("[50,150) emitted %d times, want 3 (original + two re-fires): %+v", len(second), results)
	}
	if second[0].Late || len(second[0].Decisions) != 0 {
		t.Fatalf("original [50,150) = late %v, %d decisions; want on time, none", second[0].Late, len(second[0].Decisions))
	}
	if !second[1].Late || len(second[1].Decisions) != 0 {
		t.Errorf("re-fire on a re-arrival = late %v, decisions %+v; want late, none", second[1].Late, second[1].Decisions)
	}
	if !second[2].Late || len(second[2].Decisions) != 1 || second[2].Decisions[0].Item != hit(3).Value() {
		t.Errorf("re-fire on a fresh late item = late %v, decisions %+v; want late, only item 3", second[2].Late, second[2].Decisions)
	}
}

func TestLateDropPolicy(t *testing.T) {
	items := []stream.Item{
		etItem(0, 0), etItem(1, 10),
		etItem(2, 150), // fires [0,100)
		etItem(3, 50),  // late: dropped under LateDrop
	}
	results := enactItems(t, eventCfg(stream.Config{
		WindowDuration:  100 * time.Millisecond,
		AllowedLateness: time.Second,
		LatePolicy:      stream.LateDrop,
	}), items)
	if len(results) != 2 {
		t.Fatalf("got %d windows, want 2 (no superseding re-fire)", len(results))
	}
	for _, r := range results {
		if r.Late {
			t.Errorf("window %d marked late under the drop policy", r.Seq)
		}
		for _, d := range r.Decisions {
			if d.Item == hit(3).Value() {
				t.Errorf("dropped late item decided in window %d", r.Seq)
			}
		}
	}
}

func TestEventTimeMissingKeyFailsStream(t *testing.T) {
	items := []stream.Item{etItem(0, 0), {ID: hit(1)}}
	_, err := tryEnactItems(t, eventCfg(stream.Config{WindowDuration: 100 * time.Millisecond}), items)
	if err == nil || !strings.Contains(err.Error(), "event-time evidence") {
		t.Fatalf("Run = %v, want the missing-event-time error", err)
	}
}

func TestEventTimeConfigValidation(t *testing.T) {
	c := compilePaperView(t)
	bad := []stream.Config{
		eventCfg(stream.Config{}), // neither window-duration nor session-gap
		eventCfg(stream.Config{WindowDuration: time.Second, SessionGap: time.Second}),
		eventCfg(stream.Config{WindowDuration: time.Second, SlideDuration: 2 * time.Second}),
		eventCfg(stream.Config{WindowDuration: time.Second, MaxOutOfOrder: -time.Second}),
		eventCfg(stream.Config{WindowDuration: time.Second, AllowedLateness: -time.Second}),
	}
	for i, cfg := range bad {
		if _, err := stream.New(c, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := stream.New(c, eventCfg(stream.Config{WindowDuration: time.Second})); err != nil {
		t.Fatal(err)
	}
}

// TestEventCountEquivalenceInOrder pins the windowing equivalence law:
// on an in-order feed with event time = index·10ms, tumbling event-time
// windows of 40ms with a zero out-of-order bound produce the same window
// sequence — same contents, same seq, same decisions with the same
// outputs and classes — as count windows of 4 items. (The count window
// fires on arrival of its 4th item, the event-time window on arrival of
// the first item past its end; the decided content is identical.)
func TestEventCountEquivalenceInOrder(t *testing.T) {
	const n = 40
	var items []stream.Item
	for i := 0; i < n; i++ {
		items = append(items, etItem(i, int64(i)*10))
	}
	count := enactItems(t, stream.Config{Window: 4}, items)
	event := enactItems(t, eventCfg(stream.Config{WindowDuration: 40 * time.Millisecond}), items)
	if len(count) != len(event) {
		t.Fatalf("window counts differ: count %d, event %d", len(count), len(event))
	}
	for i := range count {
		cj, _ := json.Marshal(count[i].Decisions)
		ej, _ := json.Marshal(event[i].Decisions)
		if string(cj) != string(ej) {
			t.Errorf("window %d decisions differ:\ncount: %s\nevent: %s", i, cj, ej)
		}
		if count[i].Size != event[i].Size {
			t.Errorf("window %d sizes differ: %d vs %d", i, count[i].Size, event[i].Size)
		}
	}
}

// TestEventOutOfOrderDecideSet checks the decide set of a window whose
// items arrived out of order: in [50,150), items 1 and 3 were decided by
// [0,100) and arrived between items 2 and 4, which [50,150) decides.
func TestEventOutOfOrderDecideSet(t *testing.T) {
	items := []stream.Item{
		etItem(1, 60), etItem(2, 120), etItem(3, 70), etItem(4, 130),
		etItem(5, 170), // wm 110: fires [0,100)
		etItem(6, 210), // wm 150: fires [50,150)
	}
	results := enactItems(t, eventCfg(stream.Config{
		WindowDuration: 100 * time.Millisecond,
		SlideDuration:  50 * time.Millisecond,
		MaxOutOfOrder:  60 * time.Millisecond,
	}), items)
	decidedItems(t, results) // fails on any double decision
	for _, r := range results {
		if r.Start != 50 {
			continue
		}
		var got []string
		for _, d := range r.Decisions {
			got = append(got, d.Item)
		}
		if want := []string{hit(2).Value(), hit(4).Value()}; strings.Join(got, " ") != strings.Join(want, " ") || r.Size != 4 {
			t.Fatalf("[50,150) decided %v of %d items, want %v of 4", got, r.Size, want)
		}
		return
	}
	t.Fatalf("no [50,150) window in %+v", results)
}

// TestEventTimeOutOfRangeFailsStream: an event time further than 2⁶² ns
// from the Unix epoch fails the stream instead of moving the watermark to
// a wrapped clock. ±9223372036854 ms fit an int64 in nanoseconds but
// leave no room for a window's end; the times at the bound itself are
// windowed.
func TestEventTimeOutOfRangeFailsStream(t *testing.T) {
	for _, v := range []evidence.Value{
		evidence.Int(1e16), evidence.Int(9e18), evidence.Float(1e300),
		evidence.Int(9223372036854), evidence.Int(-9223372036854),
		evidence.Int(4611686018428), evidence.Int(-4611686018428),
	} {
		items := []stream.Item{etItem(0, 0), etItem(1, 10), {
			ID:       hit(2),
			Evidence: map[evidence.Key]evidence.Value{ontology.ObservedAt: v},
		}, etItem(3, 20)}
		_, err := tryEnactItems(t, eventCfg(stream.Config{
			WindowDuration:  100 * time.Millisecond,
			AllowedLateness: time.Second,
		}), items)
		if want := "item " + hit(2).Value() + " event time:"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("event time %s: Run = %v, want an error containing %q", v, err, want)
		}
	}
	for _, ms := range []int64{4611686018427, -4611686018427} {
		items := []stream.Item{etItem(0, 0), etItem(1, ms), etItem(2, 10)}
		if _, err := tryEnactItems(t, eventCfg(stream.Config{
			WindowDuration:  100 * time.Millisecond,
			AllowedLateness: time.Second,
		}), items); err != nil {
			t.Errorf("event time %d ms: Run = %v", ms, err)
		}
	}
}

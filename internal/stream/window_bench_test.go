package stream

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

// benchItems is n items carrying four inline evidence keys and, for the
// event-time shapes, a q:ObservedAt of i ms. With swap set, each pair of
// neighbours arrives in reverse order (1, 0, 3, 2, …), 1 ms out of order.
func benchItems(n int, event, swap bool) []Item {
	items := make([]Item, n)
	for i := range items {
		ev := map[evidence.Key]evidence.Value{
			ontology.HitRatio:      evidence.Float(float64(i%97) / 97),
			ontology.Coverage:      evidence.Float(float64(i%89) / 89),
			ontology.Masses:        evidence.Int(int64(10 + i%13)),
			ontology.PeptidesCount: evidence.Int(int64(1 + i%7)),
		}
		if event {
			ev[ontology.ObservedAt] = evidence.Int(int64(i))
		}
		items[i] = Item{ID: rdf.IRI(fmt.Sprintf("urn:item:%d", i)), Evidence: ev}
	}
	if swap {
		for i := 0; i+1 < n; i += 2 {
			items[i], items[i+1] = items[i+1], items[i]
		}
	}
	return items
}

// BenchmarkWindower pushes 4,096 items through the windower in five
// shapes and reports the time and allocations per pushed item. The
// count shapes take the clone path (the live map holds exactly the
// firing window); the event-time shapes take the project path. The
// 4,096-item tumbling window also guards the fire against going
// quadratic in the window size.
func BenchmarkWindower(b *testing.B) {
	const n = 4096
	et, ms := ontology.ObservedAt, time.Millisecond
	shapes := []struct {
		name        string
		cfg         Config
		event, swap bool
	}{
		{name: "count/tumbling=64", cfg: Config{Window: 64}},
		{name: "count/tumbling=4096", cfg: Config{Window: 4096}},
		{name: "count/sliding=64/8", cfg: Config{Window: 64, Slide: 8}},
		{name: "event/tumbling=64ms", event: true,
			cfg: Config{EventTimeKey: et, WindowDuration: 64 * ms}},
		{name: "event/sliding=64ms/8ms/ooo", event: true, swap: true,
			cfg: Config{EventTimeKey: et, WindowDuration: 64 * ms, SlideDuration: 8 * ms, MaxOutOfOrder: 2 * ms}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			cfg, err := normalise(s.cfg)
			if err != nil {
				b.Fatal(err)
			}
			items := benchItems(n, s.event, s.swap)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := newWindower(cfg, "bench")
				decided := 0
				for _, it := range items {
					js, err := w.push(it)
					if err != nil {
						b.Fatal(err)
					}
					for _, j := range js {
						decided += len(j.decide)
					}
				}
				for _, j := range w.flush() {
					decided += len(j.decide)
				}
				if decided != n {
					b.Fatalf("decided %d items, want %d", decided, n)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			pushed := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pushed, "ns/item")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/pushed, "allocs/item")
		})
	}
}

// TestFireEvictsOldestSlide pins the eviction semantics the benchmark
// relies on: after a sliding fire, the oldest Slide items are gone and
// the accumulator reflects only the survivors.
func TestFireEvictsOldestSlide(t *testing.T) {
	key := evidence.Key(rdf.IRI("urn:q:HitRatio"))
	w := newWindower(Config{Window: 4, Slide: 2}, "test")
	var jobs []*windowJob
	for i := 0; i < 6; i++ {
		it := Item{
			ID:       evidence.Item(rdf.IRI(fmt.Sprintf("urn:item:%d", i))),
			Evidence: map[evidence.Key]evidence.Value{key: evidence.Float(float64(i))},
		}
		js, _ := w.push(it)
		jobs = append(jobs, js...)
	}
	if len(jobs) != 2 {
		t.Fatalf("fires = %d, want 2", len(jobs))
	}
	// After the second fire (window items 2..5, slide 2) items 2 and 3
	// are evicted; 4 and 5 remain as context.
	if w.live.Len() != 2 {
		t.Fatalf("live window = %d items, want 2", w.live.Len())
	}
	for _, gone := range []int{0, 1, 2, 3} {
		if w.live.HasItem(evidence.Item(rdf.IRI(fmt.Sprintf("urn:item:%d", gone)))) {
			t.Errorf("item %d should have been evicted", gone)
		}
	}
	acc := w.accs[key]
	if acc.N() != 2 {
		t.Fatalf("accumulator N = %d, want 2 (survivors only)", acc.N())
	}
	if got, want := acc.Mean(), (4.0+5.0)/2; got != want {
		t.Errorf("accumulator mean = %v, want %v", got, want)
	}
}

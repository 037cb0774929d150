package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/qa"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/services"
	"qurator/internal/stream"
	"qurator/internal/telemetry"
)

// enact feeds n synthetic hits through a fresh enactor and returns the
// window results in emission order.
func enact(t *testing.T, cfg stream.Config, n int) []stream.WindowResult {
	t.Helper()
	e, err := stream.New(compilePaperView(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- stream.Item{ID: hit(i)}
		}
	}()
	var (
		results []stream.WindowResult
		done    = make(chan error, 1)
	)
	go func() { done <- e.Run(context.Background(), in, out) }()
	for r := range out {
		results = append(results, r)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	return results
}

// decidedItems flattens the decisions of all windows, asserting window
// order along the way.
func decidedItems(t *testing.T, results []stream.WindowResult) map[string]stream.Decision {
	t.Helper()
	decided := make(map[string]stream.Decision)
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("window %d emitted at position %d — out of order", r.Seq, i)
		}
		for _, d := range r.Decisions {
			if prev, dup := decided[d.Item]; dup {
				t.Fatalf("item %s decided twice: windows %d and %d", d.Item, prev.Window, d.Window)
			}
			decided[d.Item] = d
		}
	}
	return decided
}

func TestTumblingWindowsDecideEveryItemOnce(t *testing.T) {
	results := enact(t, stream.Config{Window: 5}, 20)
	if len(results) != 4 {
		t.Fatalf("got %d windows, want 4", len(results))
	}
	decided := decidedItems(t, results)
	if len(decided) != 20 {
		t.Fatalf("decided %d items, want 20", len(decided))
	}
	for _, r := range results {
		if r.Size != 5 || len(r.Decisions) != 5 || r.Partial {
			t.Errorf("window %d: size=%d decided=%d partial=%v", r.Seq, r.Size, len(r.Decisions), r.Partial)
		}
	}
	// The §5.1 classifier is collection-scoped: strong (even) items should
	// survive the filter, weak (odd) ones should not — within every window
	// the evidence split is identical, so the thresholds agree.
	for item, d := range decided {
		idx := hitIndex(rdf.IRI(item))
		if idx%2 == 0 && len(d.Outputs) == 0 {
			t.Errorf("strong item %s rejected", item)
		}
		if idx%2 == 1 && len(d.Outputs) != 0 {
			t.Errorf("weak item %s accepted into %v", item, d.Outputs)
		}
		if len(d.Classes) == 0 {
			t.Errorf("item %s has no class assignment", item)
		}
	}
	// Every window reports threshold statistics for the QA score tags.
	for _, r := range results {
		if len(r.Stats) == 0 {
			t.Errorf("window %d has no stats", r.Seq)
			continue
		}
		for key, s := range r.Stats {
			if s.N != 5 || s.Lo > s.Hi {
				t.Errorf("window %d stat %s = %+v", r.Seq, key, s)
			}
		}
	}
}

func TestSlidingWindowsDecideSlideNewest(t *testing.T) {
	// Window 4, slide 2 over 10 items: window 0 decides items 0–3, then
	// each fire decides 2 more in the context of the previous 2.
	results := enact(t, stream.Config{Window: 4, Slide: 2}, 10)
	decided := decidedItems(t, results)
	if len(decided) != 10 {
		t.Fatalf("decided %d items, want 10", len(decided))
	}
	if len(results) != 4 {
		t.Fatalf("got %d windows, want 4", len(results))
	}
	if len(results[0].Decisions) != 4 {
		t.Errorf("first window decided %d, want 4", len(results[0].Decisions))
	}
	for _, r := range results[1:] {
		if len(r.Decisions) != 2 {
			t.Errorf("window %d decided %d, want 2", r.Seq, len(r.Decisions))
		}
		if r.Size != 4 {
			t.Errorf("window %d enacted %d items, want 4 (2 context + 2 new)", r.Seq, r.Size)
		}
	}
	// Decisions arrive in arrival order across windows.
	next := 0
	for _, r := range results {
		for _, d := range r.Decisions {
			if idx := hitIndex(rdf.IRI(d.Item)); idx != next {
				t.Fatalf("decision order broken: got item %d, want %d", idx, next)
			}
			next++
		}
	}
}

func TestPartialFinalWindow(t *testing.T) {
	results := enact(t, stream.Config{Window: 8}, 11)
	if len(results) != 2 {
		t.Fatalf("got %d windows, want 2", len(results))
	}
	last := results[len(results)-1]
	if !last.Partial || last.Size != 3 || len(last.Decisions) != 3 {
		t.Errorf("final window = %+v, want partial of 3", last)
	}
	if len(decidedItems(t, results)) != 11 {
		t.Error("partial flush lost items")
	}

	dropped := enact(t, stream.Config{Window: 8, DropPartial: true}, 11)
	if len(dropped) != 1 {
		t.Fatalf("DropPartial: got %d windows, want 1", len(dropped))
	}
	if len(decidedItems(t, dropped)) != 8 {
		t.Error("DropPartial should decide exactly the complete window")
	}
}

func TestParallelWorkersPreserveWindowOrder(t *testing.T) {
	const n, window = 96, 8
	sequential := enact(t, stream.Config{Window: window, Parallelism: 1}, n)
	parallel := enact(t, stream.Config{Window: window, Parallelism: 8}, n)
	if len(sequential) != len(parallel) {
		t.Fatalf("window counts differ: %d vs %d", len(sequential), len(parallel))
	}
	seqDecided := decidedItems(t, sequential)
	parDecided := decidedItems(t, parallel)
	if len(parDecided) != n {
		t.Fatalf("parallel run decided %d items, want %d", len(parDecided), n)
	}
	// Parallel enactment must be observationally identical to sequential:
	// same windows, same decisions, same order.
	for item, sd := range seqDecided {
		pd, ok := parDecided[item]
		if !ok {
			t.Fatalf("parallel run never decided %s", item)
		}
		if pd.Window != sd.Window || fmt.Sprint(pd.Outputs) != fmt.Sprint(sd.Outputs) {
			t.Errorf("item %s: sequential %+v, parallel %+v", item, sd, pd)
		}
	}
}

func TestCancellationUnwindsPipeline(t *testing.T) {
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 4, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx, in, out) }()
	// Feed two windows, then cancel while the producer is mid-stream.
	for i := 0; i < 8; i++ {
		in <- stream.Item{ID: hit(i)}
	}
	cancel()
	for range out {
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not unwind after cancellation")
	}
}

func TestEnactmentErrorCancelsRun(t *testing.T) {
	// An annotator that fails as soon as it sees an item of the second
	// window makes that window's enactment fail.
	failing := ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Types:    identityAnnotator().Provides(),
		Fn: func(items []evidence.Item, repo annotstore.Store) error {
			for _, it := range items {
				if hitIndex(it) >= 4 {
					return fmt.Errorf("poison item %v", it)
				}
			}
			return identityAnnotator().Annotate(items, repo)
		},
	}
	c := compileViewXML(t, qvlang.PaperViewXML, failing)
	e, err := stream.New(c, stream.Config{Window: 4, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		for i := 0; i < 16; i++ {
			select {
			case in <- stream.Item{ID: hit(i)}:
			case <-time.After(5 * time.Second):
				return
			}
		}
	}()
	var got []stream.WindowResult
	for r := range out {
		got = append(got, r)
	}
	err = <-done
	if err == nil || !strings.Contains(err.Error(), "poison") {
		t.Fatalf("Run = %v, want the poison-item error", err)
	}
	for _, r := range got {
		if r.Seq > 0 {
			t.Errorf("window %d emitted after the failing window", r.Seq)
		}
	}
}

// deadlineRefusing fails any invocation whose context carries a deadline,
// so a leaked per-processor timeout shows as an enactment error.
type deadlineRefusing struct{ services.QualityService }

func (s deadlineRefusing) Invoke(ctx context.Context, req *services.Envelope) (*services.Envelope, error) {
	if _, ok := ctx.Deadline(); ok {
		return nil, errors.New("invoked under a deadline")
	}
	return s.QualityService.Invoke(ctx, req)
}

// TestNewLeavesCompiledViewUntouched: a stream's ProcessorTimeout bounds
// the stream's own plan only. The compiled view stays shareable with
// batch enactments, so a later batch Run of it carries no deadline.
func TestNewLeavesCompiledViewUntouched(t *testing.T) {
	comp := compileStack(t, identityAnnotator())
	comp.Resolver.Local.Add(deadlineRefusing{&services.AssertionService{
		ServiceName: "HR_score",
		QA:          qa.NewHRScore(qvlang.TagKeyFor("HR")),
	}})
	c := compileWith(t, comp, qvlang.PaperViewXML)
	if _, err := stream.New(c, stream.Config{Window: 2, ProcessorTimeout: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), []evidence.Item{hit(0), hit(1)}); err != nil {
		t.Fatalf("batch Run after stream.New: %v", err)
	}
}

// TestPlanOfOneStreamKeepsViewProcessorNames: a single-view stream
// enacts the view's plan of one, so its processor series carry the
// view's own processor names, as batch runs do.
func TestPlanOfOneStreamKeepsViewProcessorNames(t *testing.T) {
	const view = "protein-id-quality" // qvlang.PaperViewXML
	fires := telemetry.Default.CounterVec("qurator_processor_fires_total", "", "workflow", "processor").
		With(view, "QA:HR_MC_score")
	before := fires.Value()
	enact(t, stream.Config{Window: 4}, 8)
	if got := fires.Value() - before; got != 2 {
		t.Errorf("QA:HR_MC_score fired %d times over 2 windows, want 2", got)
	}
	for _, m := range telemetry.Default.Snapshot() {
		if !strings.HasPrefix(m.Name, "qurator_processor_") {
			continue
		}
		for _, s := range m.Series {
			if s.Labels["workflow"] == view && strings.Contains(s.Labels["processor"], "@") {
				t.Errorf("%s{processor=%q}: a single-view stream renamed the view's processor", m.Name, s.Labels["processor"])
			}
		}
	}
}

func TestSkipFailedWindowsReportsAndContinues(t *testing.T) {
	// Same poison as TestEnactmentErrorCancelsRun — items 4–7 blow up the
	// annotator — but with SkipFailedWindows the stream survives: the
	// poisoned window is reported failed-and-undecided, its neighbours
	// decide normally, and Run returns clean.
	failing := ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Types:    identityAnnotator().Provides(),
		Fn: func(items []evidence.Item, repo annotstore.Store) error {
			for _, it := range items {
				if idx := hitIndex(it); idx >= 4 && idx < 8 {
					return fmt.Errorf("poison item %v", it)
				}
			}
			return identityAnnotator().Annotate(items, repo)
		},
	}
	c := compileViewXML(t, qvlang.PaperViewXML, failing)
	e, err := stream.New(c, stream.Config{Window: 4, SkipFailedWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		for i := 0; i < 12; i++ {
			in <- stream.Item{ID: hit(i)}
		}
	}()
	var results []stream.WindowResult
	for r := range out {
		results = append(results, r)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run with SkipFailedWindows = %v, want nil", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d windows, want 3", len(results))
	}
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("window %d emitted at position %d", r.Seq, i)
		}
	}
	bad := results[1]
	if !bad.Failed || !strings.Contains(bad.Error, "poison") || len(bad.Decisions) != 0 || bad.Size != 4 {
		t.Errorf("failed window = %+v, want Failed with the poison error and no decisions", bad)
	}
	for _, i := range []int{0, 2} {
		r := results[i]
		if r.Failed || len(r.Decisions) != 4 {
			t.Errorf("healthy window %d = failed=%v decided=%d, want 4 decisions", r.Seq, r.Failed, len(r.Decisions))
		}
	}
}

func TestDuplicateArrivalRefreshesWithoutGrowth(t *testing.T) {
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		in <- stream.Item{ID: hit(0)}
		in <- stream.Item{ID: hit(1)}
		in <- stream.Item{ID: hit(0)} // duplicate: must not fill a slot
		in <- stream.Item{ID: hit(2)}
		in <- stream.Item{ID: hit(3)}
	}()
	var results []stream.WindowResult
	for r := range out {
		results = append(results, r)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d windows, want 1", len(results))
	}
	if results[0].Size != 4 || len(results[0].Decisions) != 4 {
		t.Errorf("window = %+v, want 4 distinct items", results[0])
	}
}

func TestConfigValidation(t *testing.T) {
	c := compilePaperView(t)
	if _, err := stream.New(nil, stream.Config{Window: 4}); err == nil {
		t.Error("nil compiled view accepted")
	}
	if _, err := stream.New(c, stream.Config{}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := stream.New(c, stream.Config{Window: 4, Slide: 5}); err == nil {
		t.Error("slide > window accepted")
	}
	if _, err := stream.New(c, stream.Config{Window: 4, Slide: -1}); err == nil {
		t.Error("negative slide accepted")
	}
	if _, err := stream.New(c, stream.Config{Window: 4, Parallelism: -3}); err == nil {
		t.Error("negative parallelism accepted")
	}
	e, err := stream.New(c, stream.Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p := e.Config().Parallelism; p != 1 {
		t.Errorf("default parallelism = %d, want 1", p)
	}
	if p := e.Plans()[0]; len(p.QAs) != 3 {
		t.Errorf("plan = %+v", p)
	}
}

// TestInlineEvidenceStats checks the incremental Welford bookkeeping: a
// stream carrying inline numeric evidence reports per-window statistics
// matching an exact recomputation, across window boundaries (add and
// remove paths both exercised).
func TestInlineEvidenceStats(t *testing.T) {
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 3, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := ontology.Q("inlineScore")
	vals := []float64{2, 9, 4, 25, 1, 16, 8}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		for i, v := range vals {
			in <- stream.Item{
				ID:       hit(i),
				Evidence: map[evidence.Key]evidence.Value{key: evidence.Float(v)},
			}
		}
	}()
	var results []stream.WindowResult
	for r := range out {
		results = append(results, r)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var checked int
	for _, r := range results {
		if r.Partial {
			continue
		}
		s, ok := r.Stats[key.Value()]
		if !ok {
			t.Fatalf("window %d lacks inline stats: %v", r.Seq, r.Stats)
		}
		// Exact window contents: with window 3 / slide 1, window w holds
		// vals[w : w+3].
		m := evidence.NewMap()
		for i := r.Seq; i < r.Seq+3; i++ {
			m.AddItem(hit(i))
			m.Set(hit(i), key, evidence.Float(vals[i]))
		}
		want := m.ColumnStats(key)
		if s.N != 3 || !approx(s.Mean, want.Mean) || !approx(s.StdDev, want.StdDev) {
			t.Errorf("window %d stats = %+v, want mean %g stddev %g", r.Seq, s, want.Mean, want.StdDev)
		}
		if !approx(s.Lo, want.Mean-want.StdDev) || !approx(s.Hi, want.Mean+want.StdDev) {
			t.Errorf("window %d thresholds = [%g, %g]", r.Seq, s.Lo, s.Hi)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("checked only %d complete windows", checked)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestBackpressure: with a bounded pipeline and a consumer that refuses to
// read, the producer must block rather than buffer unboundedly.
func TestBackpressure(t *testing.T) {
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult) // never read until cancel
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx, in, out) }()

	var accepted int
	var mu sync.Mutex
	stalled := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case in <- stream.Item{ID: hit(i)}:
				mu.Lock()
				accepted++
				mu.Unlock()
			case <-time.After(500 * time.Millisecond):
				close(stalled)
				return
			}
		}
	}()
	<-stalled
	mu.Lock()
	n := accepted
	mu.Unlock()
	// Capacity of the stalled pipeline: live window + jobs buffer + worker
	// + results buffer + reorder ≈ a few windows, nowhere near unbounded.
	if n > 20 {
		t.Errorf("producer pushed %d items into a stalled pipeline", n)
	}
	cancel()
	for range out {
	}
	<-done
}

// poisonFeed is NDJSON for n paper-view items whose first two carry
// q:HitRatio values of ±1e308: their Welford variance overflows float64.
func poisonFeed(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		hr := "0.9"
		switch i {
		case 0:
			hr = "1e308"
		case 1:
			hr = "-1e308"
		}
		fmt.Fprintf(&b, `{"item":%q,"evidence":{"q:HitRatio":%s,"q:Coverage":0.8,"q:Masses":12,"q:PeptidesCount":8}}`+"\n",
			hit(i).Value(), hr)
	}
	return b.String()
}

// TestExtremeEvidenceDoesNotStallStream: a window whose evidence
// overflows the running statistics leaves those keys out of its summary,
// so the summary still encodes and the stream decides every later item.
func TestExtremeEvidenceDoesNotStallStream(t *testing.T) {
	const n = 2000
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	readErr := make(chan error, 1)
	runErr := make(chan error, 1)
	go func() { readErr <- stream.ReadItems(strings.NewReader(poisonFeed(n)), in) }()
	go func() { runErr <- e.Run(context.Background(), in, out) }()
	var buf bytes.Buffer
	if err := stream.WriteResults(&buf, out, nil); err != nil {
		t.Fatalf("WriteResults: %v", err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-readErr; err != nil {
		t.Fatalf("ReadItems: %v", err)
	}

	type line struct {
		Item    string                        `json:"item"`
		Window  *int                          `json:"window"`
		Decided *int                          `json:"decided"`
		Stats   map[string]stream.WindowStats `json:"stats"`
	}
	decided := map[string]bool{}
	var summaries []line
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var l line
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Decided != nil {
			summaries = append(summaries, l)
		} else {
			decided[l.Item] = true
		}
	}
	if len(decided) != n {
		t.Errorf("decided %d items, want %d", len(decided), n)
	}
	if len(summaries) != n/2 {
		t.Fatalf("got %d window summaries, want %d", len(summaries), n/2)
	}
	if _, ok := summaries[0].Stats[ontology.HitRatio.Value()]; ok {
		t.Errorf("window 0 reports overflowed q:HitRatio stats: %+v", summaries[0].Stats)
	}

	// Window 1 holds items 2 and 3; its inline-evidence statistics are
	// those of a full scan of its map.
	m := evidence.NewMap()
	for i := 2; i < 4; i++ {
		m.AddItem(hit(i))
		m.Set(hit(i), ontology.HitRatio, evidence.Float(0.9))
		m.Set(hit(i), ontology.Coverage, evidence.Float(0.8))
		m.Set(hit(i), ontology.Masses, evidence.Int(12))
		m.Set(hit(i), ontology.PeptidesCount, evidence.Int(8))
	}
	want := stream.RecomputeStats(m)
	if len(want) != 4 {
		t.Fatalf("full scan stats = %v, want 4 keys", want)
	}
	got := summaries[1].Stats
	for k, w := range want {
		g, ok := got[k]
		if !ok || g.N != w.N || !approx(g.Mean, w.Mean) || !approx(g.StdDev, w.StdDev) ||
			!approx(g.Lo, w.Lo) || !approx(g.Hi, w.Hi) {
			t.Errorf("window 1 stats[%s] = %+v, want %+v", k, g, w)
		}
	}
}

// failingWriter fails every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("peer gone") }

// TestWriteResultsFailureLetsRunFinish: once the writer fails, WriteResults
// keeps draining, so Run is never left blocked sending a result.
func TestWriteResultsFailureLetsRunFinish(t *testing.T) {
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	runErr := make(chan error, 1)
	writeErr := make(chan error, 1)
	go func() { runErr <- e.Run(context.Background(), in, out) }()
	go func() { writeErr <- stream.WriteResults(failingWriter{}, out, nil) }()
	go func() {
		defer close(in)
		for i := 0; i < 20; i++ {
			in <- stream.Item{ID: hit(i)}
		}
	}()
	watchdog := time.After(30 * time.Second)
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-watchdog:
		t.Fatal("Run is still blocked after the writer failed")
	}
	select {
	case err := <-writeErr:
		if err == nil || !strings.Contains(err.Error(), "peer gone") {
			t.Fatalf("WriteResults = %v, want the writer's error", err)
		}
	case <-watchdog:
		t.Fatal("WriteResults did not return")
	}
}

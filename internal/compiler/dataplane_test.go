package compiler

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/qcache"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/services"
	"qurator/internal/workflow"
)

// compilePaperViewDP compiles the §5.1 view with data-plane settings.
func compilePaperViewDP(t *testing.T, shardSize, maxInflight int, cache *qcache.Cache) *Compiled {
	t.Helper()
	v, err := qvlang.Parse([]byte(qvlang.PaperViewXML))
	if err != nil {
		t.Fatal(err)
	}
	r, err := qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatal(err)
	}
	c := testCompiler(t)
	c.ShardSize = shardSize
	c.MaxInflight = maxInflight
	c.Cache = cache
	compiled, err := c.Compile(r)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return compiled
}

func canonical(t *testing.T, m *evidence.Map) string {
	t.Helper()
	var b bytes.Buffer
	if err := m.WriteCanonical(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// runCanonical runs the compiled view and flattens every output to its
// canonical encoding, keyed by output name.
func runCanonical(t *testing.T, c *Compiled, items []evidence.Item) map[string]string {
	t.Helper()
	out, err := c.Run(context.Background(), items)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	enc := make(map[string]string, len(out))
	for name, m := range out {
		enc[name] = canonical(t, m)
	}
	return enc
}

// TestShardedEnactmentEquivalence pins the tentpole guarantee: for the
// §5.1 view — which mixes item-scoped QAs, a collection-scoped
// classifier, enrichment, an annotator and a filter — sharded and cached
// enactment is bit-identical to serial enactment, for any shard size and
// data-set size (empty and single-item included).
func TestShardedEnactmentEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16} {
		items := make([]evidence.Item, n)
		for i := range items {
			items[i] = item(i)
		}
		want := runCanonical(t, compilePaperViewDP(t, 0, 0, nil), items)
		for _, shardSize := range []int{1, 2, 3, 7, 100} {
			for _, cached := range []bool{false, true} {
				var cache *qcache.Cache
				if cached {
					cache = qcache.New(qcache.Options{Name: fmt.Sprintf("t-eq-%d-%d", n, shardSize)})
				}
				got := runCanonical(t, compilePaperViewDP(t, shardSize, 3, cache), items)
				if len(got) != len(want) {
					t.Fatalf("n=%d shard=%d cache=%v: %d outputs, want %d", n, shardSize, cached, len(got), len(want))
				}
				for name, enc := range want {
					if got[name] != enc {
						t.Errorf("n=%d shard=%d cache=%v: output %q diverged from serial enactment", n, shardSize, cached, name)
					}
				}
			}
		}
	}
}

// TestRepeatedRunsHitCache re-enacts an identical data set and checks the
// pure invocations (QAs, filter) answer from the cache while the
// repository-touching stages (annotator, enrichment) never enter it.
func TestRepeatedRunsHitCache(t *testing.T) {
	cache := qcache.New(qcache.Options{Name: "t-repeat"})
	c := compilePaperViewDP(t, 4, 2, cache)
	items := make([]evidence.Item, 12)
	for i := range items {
		items[i] = item(i)
	}
	first := runCanonical(t, c, items)
	afterFirst := cache.Stats()
	if afterFirst.Misses == 0 {
		t.Fatal("first run should populate the cache")
	}
	if afterFirst.Hits != 0 {
		t.Fatalf("first run hit the cache %d times over distinct payloads", afterFirst.Hits)
	}
	second := runCanonical(t, c, items)
	afterSecond := cache.Stats()
	if afterSecond.Hits == 0 {
		t.Fatal("second identical run should hit the cache")
	}
	if afterSecond.Misses != afterFirst.Misses {
		t.Fatalf("second identical run missed: %d → %d misses", afterFirst.Misses, afterSecond.Misses)
	}
	for name, enc := range first {
		if second[name] != enc {
			t.Errorf("output %q changed between identical runs", name)
		}
	}
}

// echoService is a controllable QualityService for processor-level tests:
// it stamps a marker key on every item (assertion/enrichment shape) or
// splits items into configured groups, counting invocations.
type echoService struct {
	name    string
	scope   services.Scope
	invokes atomic.Int64
	fail    error
	// splitInto, when set, routes items round-robin into these groups.
	splitInto []string
}

func (s *echoService) Describe() services.Info {
	return services.Info{Name: s.name, Kind: services.KindAssertion, Scope: s.scope}
}

func (s *echoService) Invoke(_ context.Context, req *services.Envelope) (*services.Envelope, error) {
	s.invokes.Add(1)
	if s.fail != nil {
		return nil, s.fail
	}
	m, err := req.Map()
	if err != nil {
		return nil, err
	}
	if len(s.splitInto) > 0 {
		groups := make(map[string]*evidence.Map, len(s.splitInto))
		for _, g := range s.splitInto {
			groups[g] = evidence.NewMap()
		}
		for i, it := range m.Items() {
			g := groups[s.splitInto[i%len(s.splitInto)]]
			g.AddItem(it)
		}
		resp := &services.Envelope{Service: s.name, Operation: "split"}
		resp.SetGroups(groups, s.splitInto)
		return resp, nil
	}
	for _, it := range m.Items() {
		m.Set(it, rdf.IRI("urn:echo:mark"), evidence.Bool(true))
	}
	resp := services.NewEnvelope(m)
	resp.Service = s.name
	return resp, nil
}

func echoItems(n int) *evidence.Map {
	m := evidence.NewMap()
	for i := 0; i < n; i++ {
		m.AddItem(rdf.IRI(fmt.Sprintf("urn:echo:%02d", i)))
	}
	return m
}

// TestSplitStrayGroupsRouteToDefault pins the satellite bugfix: groups a
// split service returns that have no output port used to be silently
// dropped — their items vanished from the data set. They now merge into
// PortDefault (deterministically) and are counted on telemetry.
func TestSplitStrayGroupsRouteToDefault(t *testing.T) {
	svc := &echoService{name: "stray-split", scope: services.ScopeItem,
		splitInto: []string{"known", "mystery", "enigma"}}
	p := &serviceProcessor{
		name: "Action:stray-test", svc: svc, mode: modeSplit,
		inPort: PortAnnotations, outs: []string{"known", PortDefault}, op: "split",
	}
	before := strayGroups.With(p.name).Value()
	in := echoItems(9)
	ports, err := p.Execute(context.Background(), workflow.Ports{PortAnnotations: in})
	if err != nil {
		t.Fatal(err)
	}
	known := ports["known"].(*evidence.Map)
	def := ports[PortDefault].(*evidence.Map)
	if known.Len()+def.Len() != in.Len() {
		t.Fatalf("items vanished: known=%d default=%d in=%d", known.Len(), def.Len(), in.Len())
	}
	if def.Len() != 6 {
		t.Fatalf("default carries %d items, want the 6 stray-group items", def.Len())
	}
	if got := strayGroups.With(p.name).Value() - before; got != 2 {
		t.Fatalf("stray-group counter advanced by %d, want 2 (mystery + enigma)", got)
	}

	// Deterministic: stray routing must not depend on map iteration order.
	again, err := p.Execute(context.Background(), workflow.Ports{PortAnnotations: echoItems(9)})
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, def) != canonical(t, again[PortDefault].(*evidence.Map)) {
		t.Fatal("stray routing is not deterministic")
	}
}

// TestInvokeErrorsCarryProcessorContext pins the satellite bugfix: service
// errors used to surface bare, leaving FailureLog entries ambiguous.
func TestInvokeErrorsCarryProcessorContext(t *testing.T) {
	svc := &echoService{name: "broken-svc", scope: services.ScopeItem,
		fail: fmt.Errorf("connection refused")}
	p := &serviceProcessor{
		name: "QA:broken", svc: svc, mode: modeAssertion,
		inPort: PortAnnotations, outs: []string{PortAnnotations},
	}
	_, err := p.Execute(context.Background(), workflow.Ports{PortAnnotations: echoItems(3)})
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{`processor "QA:broken"`, `service "broken-svc"`, "connection refused"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}

	// Sharded failures additionally name the failing shard.
	p.shardSize = 1
	_, err = p.Execute(context.Background(), workflow.Ports{PortAnnotations: echoItems(3)})
	if err == nil {
		t.Fatal("want sharded error")
	}
	if !strings.Contains(err.Error(), "shard ") {
		t.Errorf("sharded error %q lacks shard context", err)
	}
}

// TestProcessorCacheGates pins which modes may be served from cache:
// assertion/filter/split are pure responses; enrichment and annotator
// touch mutable repositories and must invoke every time.
func TestProcessorCacheGates(t *testing.T) {
	for _, tc := range []struct {
		mode        mode
		wantInvokes int64
	}{
		{modeAssertion, 1},
		{modeFilter, 1},
		{modeEnrichment, 2},
		{modeAnnotator, 2},
	} {
		svc := &echoService{name: fmt.Sprintf("gate-%d", tc.mode), scope: services.ScopeItem}
		p := &serviceProcessor{
			name: fmt.Sprintf("P:gate-%d", tc.mode), svc: svc, mode: tc.mode,
			inPort: PortAnnotations, outs: []string{PortAnnotations},
			cache: qcache.New(qcache.Options{Name: fmt.Sprintf("t-gate-%d", tc.mode)}),
		}
		for run := 0; run < 2; run++ {
			if _, err := p.Execute(context.Background(), workflow.Ports{PortAnnotations: echoItems(4)}); err != nil {
				t.Fatalf("mode %d run %d: %v", tc.mode, run, err)
			}
		}
		if got := svc.invokes.Load(); got != tc.wantInvokes {
			t.Errorf("mode %d: %d invocations over two identical runs, want %d", tc.mode, got, tc.wantInvokes)
		}
	}
}

// TestCachedResponseReadsAreIndependent: a cached response envelope is
// shared by every later hit, so each read of it must yield a map the
// reader owns. Mutating the output of one run must not show in the next
// run served from the same cache entry, for map and split responses alike.
func TestCachedResponseReadsAreIndependent(t *testing.T) {
	for _, tc := range []struct {
		mode  mode
		outs  []string
		split []string
	}{
		{modeAssertion, []string{PortAnnotations}, nil},
		{modeSplit, []string{"left", PortDefault}, []string{"left", PortDefault}},
	} {
		svc := &echoService{name: fmt.Sprintf("shared-%d", tc.mode), scope: services.ScopeItem, splitInto: tc.split}
		p := &serviceProcessor{
			name: fmt.Sprintf("P:shared-%d", tc.mode), svc: svc, mode: tc.mode,
			inPort: PortAnnotations, outs: tc.outs,
			cache: qcache.New(qcache.Options{Name: fmt.Sprintf("t-shared-%d", tc.mode)}),
		}
		run := func() workflow.Ports {
			out, err := p.Execute(context.Background(), workflow.Ports{PortAnnotations: echoItems(4)})
			if err != nil {
				t.Fatalf("mode %d: %v", tc.mode, err)
			}
			return out
		}
		first := run()
		want := make(map[string]string, len(first))
		for port, v := range first {
			want[port] = canonical(t, v.(*evidence.Map))
			m := v.(*evidence.Map)
			m.Set(rdf.IRI("urn:echo:00"), rdf.IRI("urn:echo:tamper"), evidence.Int(1))
			m.RemoveFirst(1)
		}
		second := run()
		if got := svc.invokes.Load(); got != 1 {
			t.Fatalf("mode %d: %d invocations, want the second run served from cache", tc.mode, got)
		}
		for port, v := range second {
			m := v.(*evidence.Map)
			if got := canonical(t, m); got != want[port] {
				t.Errorf("mode %d port %q: the cached response carries the first reader's mutation:\n%v", tc.mode, port, m)
			}
			if first[port] == v {
				t.Errorf("mode %d port %q: two reads returned the same map", tc.mode, port)
			}
		}
	}
}

// TestCollectionScopedServiceNeverShards: a service that does not declare
// item scope receives the whole map regardless of shard size.
func TestCollectionScopedServiceNeverShards(t *testing.T) {
	svc := &echoService{name: "whole-map", scope: services.ScopeCollection}
	p := &serviceProcessor{
		name: "QA:whole", svc: svc, mode: modeAssertion,
		inPort: PortAnnotations, outs: []string{PortAnnotations},
		shardSize: 2, maxInflight: 4,
	}
	if _, err := p.Execute(context.Background(), workflow.Ports{PortAnnotations: echoItems(10)}); err != nil {
		t.Fatal(err)
	}
	if got := svc.invokes.Load(); got != 1 {
		t.Fatalf("collection-scoped service invoked %d times, want 1", got)
	}
}

// TestItemScopedServiceShards: shard fan-out happens, responses merge in
// order, and the item-wise result matches the serial one.
func TestItemScopedServiceShards(t *testing.T) {
	svc := &echoService{name: "sharded", scope: services.ScopeItem}
	p := &serviceProcessor{
		name: "QA:sharded", svc: svc, mode: modeAssertion,
		inPort: PortAnnotations, outs: []string{PortAnnotations},
		shardSize: 3, maxInflight: 2,
	}
	in := echoItems(10)
	ports, err := p.Execute(context.Background(), workflow.Ports{PortAnnotations: in})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.invokes.Load(); got != 4 { // ceil(10/3)
		t.Fatalf("invoked %d times, want 4 shards", got)
	}
	out := ports[PortAnnotations].(*evidence.Map)
	if out.Len() != in.Len() {
		t.Fatalf("merged %d items, want %d", out.Len(), in.Len())
	}
	for i, it := range in.Items() {
		if out.ItemAt(i) != it {
			t.Fatalf("item %d out of order after merge", i)
		}
		if !out.Has(it, rdf.IRI("urn:echo:mark")) {
			t.Fatalf("item %d lost its evidence", i)
		}
	}
}

// TestConsolidateLastWriterWins pins the order dependence of the
// ConsolidateAssertions merge: on a conflicting (item, key) the
// later input port wins, items keep first-seen order, and disjoint
// evidence unions.
func TestConsolidateLastWriterWins(t *testing.T) {
	it1, it2, it3 := item(1), item(2), item(3)
	key := ontology.HitRatio
	other := ontology.Coverage

	mkMap := func(fill func(m *evidence.Map)) *evidence.Map {
		m := evidence.NewMap()
		fill(m)
		return m
	}
	for _, tc := range []struct {
		name      string
		in0, in1  *evidence.Map
		wantVal   evidence.Value
		wantOrder []evidence.Item
	}{
		{
			name:      "conflicting value: in1 wins",
			in0:       mkMap(func(m *evidence.Map) { m.Set(it1, key, evidence.Float(0.1)) }),
			in1:       mkMap(func(m *evidence.Map) { m.Set(it1, key, evidence.Float(0.9)) }),
			wantVal:   evidence.Float(0.9),
			wantOrder: []evidence.Item{it1},
		},
		{
			name:      "reversed inputs: the other writer wins",
			in0:       mkMap(func(m *evidence.Map) { m.Set(it1, key, evidence.Float(0.9)) }),
			in1:       mkMap(func(m *evidence.Map) { m.Set(it1, key, evidence.Float(0.1)) }),
			wantVal:   evidence.Float(0.1),
			wantOrder: []evidence.Item{it1},
		},
		{
			name: "disjoint keys union; items keep first-seen order",
			in0: mkMap(func(m *evidence.Map) {
				m.Set(it2, key, evidence.Float(0.5))
				m.Set(it1, other, evidence.String_("a"))
			}),
			in1: mkMap(func(m *evidence.Map) {
				m.Set(it3, key, evidence.Float(0.7))
				m.Set(it1, key, evidence.Float(0.2))
			}),
			wantVal:   evidence.Float(0.2),
			wantOrder: []evidence.Item{it2, it1, it3},
		},
		{
			name:      "later null does not erase: absent keys are not written",
			in0:       mkMap(func(m *evidence.Map) { m.Set(it1, key, evidence.Float(0.4)) }),
			in1:       mkMap(func(m *evidence.Map) { m.AddItem(it1) }),
			wantVal:   evidence.Float(0.4),
			wantOrder: []evidence.Item{it1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &consolidateProcessor{name: ProcConsolidate, inputs: []string{"in0", "in1"}}
			ports, err := p.Execute(context.Background(), workflow.Ports{"in0": tc.in0, "in1": tc.in1})
			if err != nil {
				t.Fatal(err)
			}
			merged := ports[PortAnnotations].(*evidence.Map)
			if got := merged.Get(it1, key); got != tc.wantVal {
				t.Errorf("merged value = %v, want %v", got, tc.wantVal)
			}
			items := merged.Items()
			if len(items) != len(tc.wantOrder) {
				t.Fatalf("merged %d items, want %d", len(items), len(tc.wantOrder))
			}
			for i, want := range tc.wantOrder {
				if items[i] != want {
					t.Errorf("item %d = %v, want %v", i, items[i], want)
				}
			}
		})
	}
}

// TestShardEquivalenceAcrossShardSizes drives one item-scoped processor
// through every shard size and pins the canonical output against the
// serial run — the processor-level counterpart of the whole-view test.
func TestShardEquivalenceAcrossShardSizes(t *testing.T) {
	run := func(shardSize, n int) string {
		svc := &echoService{name: "eq", scope: services.ScopeItem}
		p := &serviceProcessor{
			name: "QA:eq", svc: svc, mode: modeAssertion,
			inPort: PortAnnotations, outs: []string{PortAnnotations},
			shardSize: shardSize, maxInflight: 4,
		}
		ports, err := p.Execute(context.Background(), workflow.Ports{PortAnnotations: echoItems(n)})
		if err != nil {
			t.Fatal(err)
		}
		return canonical(t, ports[PortAnnotations].(*evidence.Map))
	}
	var sizes []int
	for _, n := range []int{0, 1, 2, 9} {
		want := run(0, n)
		sizes = []int{1, 2, 3, 8, 50}
		for _, s := range sizes {
			if got := run(s, n); got != want {
				t.Errorf("n=%d shard=%d: output diverged", n, s)
			}
		}
	}
	sort.Ints(sizes) // keep the slice used; documents the coverage set
}

// gateService blocks every invocation on a release channel while
// deliberately ignoring the context — it models a slow remote host, and
// lets a test hold all semaphore slots while inspecting queued workers.
type gateService struct {
	name    string
	started chan struct{}
	release chan struct{}
	invokes atomic.Int64
}

func (s *gateService) Describe() services.Info {
	return services.Info{Name: s.name, Kind: services.KindAssertion, Scope: services.ScopeItem}
}

func (s *gateService) Invoke(_ context.Context, req *services.Envelope) (*services.Envelope, error) {
	s.invokes.Add(1)
	s.started <- struct{}{}
	<-s.release
	m, err := req.Map()
	if err != nil {
		return nil, err
	}
	resp := services.NewEnvelope(m)
	resp.Service = s.name
	return resp, nil
}

// TestInvokeShardsCancelReleasesQueuedWorkers pins the satellite bugfix:
// workers used to acquire the semaphore with an unconditional send, so
// after cancellation the whole queue still trickled through slot
// acquisition behind the in-flight invocations. Acquisition now selects
// on the cancelled context: with both slots held by a blocked service,
// cancelling must release every queued worker promptly.
func TestInvokeShardsCancelReleasesQueuedWorkers(t *testing.T) {
	const shards = 40
	svc := &gateService{
		name:    "gate-svc",
		started: make(chan struct{}, shards),
		release: make(chan struct{}),
	}
	p := &serviceProcessor{
		name: "QA:gate", svc: svc, mode: modeAssertion,
		inPort: PortAnnotations, outs: []string{PortAnnotations},
		shardSize: 1, maxInflight: 2,
	}
	in := echoItems(shards)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.invokeShards(ctx, p.shardInput(in), p.snapshotConfig())
	}()
	// Both slots held inside the gated service; 38 workers are queued.
	<-svc.started
	<-svc.started
	cancel()
	// The queued workers must exit without waiting for a slot. Poll the
	// goroutine count down: only the two in-flight workers, the fan-out
	// goroutine, and this test's helpers may remain.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+8 {
		if time.Now().After(deadline) {
			t.Fatalf("queued workers still blocked on the semaphore after cancel: %d goroutines (baseline %d)",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Release the two in-flight invocations and let the fan-out finish.
	close(svc.release)
	<-done
	if got := svc.invokes.Load(); got > 4 {
		t.Errorf("%d shards invoked after cancellation, want ≤ 4", got)
	}
}

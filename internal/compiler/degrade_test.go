package compiler

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"qurator/internal/annotstore"
	"qurator/internal/binding"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/qa"
	"qurator/internal/qvlang"
	"qurator/internal/services"
)

// flakyService wraps a quality service so the first `failures`
// invocations fail (or, with hang set, every invocation blocks until the
// context expires). It stands in for a remote host whose resilient
// transport has already given up.
type flakyService struct {
	inner    services.QualityService
	failures int
	hang     bool

	mu    sync.Mutex
	calls int
}

func (f *flakyService) Describe() services.Info { return f.inner.Describe() }

func (f *flakyService) Invoke(ctx context.Context, req *services.Envelope) (*services.Envelope, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if f.hang {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if n <= f.failures {
		return nil, fmt.Errorf("flaky: injected failure %d", n)
	}
	return f.inner.Invoke(ctx, req)
}

func (f *flakyService) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// degradeCompiler is testCompiler with hooks: wrap lets a test substitute
// any deployed service (keyed by service name) before binding.
func degradeCompiler(t *testing.T, wrap map[string]func(services.QualityService) services.QualityService) *Compiler {
	t.Helper()
	model := ontology.NewIQModel()
	repos := annotstore.NewRegistry()
	local := services.NewRegistry()
	add := func(name string, svc services.QualityService) {
		if w, ok := wrap[name]; ok {
			svc = w(svc)
		}
		local.Add(svc)
	}
	add("ImprintOutputAnnotator", &services.AnnotatorService{
		ServiceName:  "ImprintOutputAnnotator",
		Annotator:    testAnnotator(),
		Repositories: repos,
	})
	add("HR_MC_score", &services.AssertionService{
		ServiceName: "HR_MC_score",
		QA:          qa.NewUniversalPIScore(qvlang.TagKeyFor("HR_MC")),
	})
	add("HR_score", &services.AssertionService{
		ServiceName: "HR_score",
		QA:          qa.NewHRScore(qvlang.TagKeyFor("HR")),
	})
	add("PIScoreClassifier", &services.AssertionService{
		ServiceName: "PIScoreClassifier",
		QA:          qa.NewPIScoreClassifier(),
	})
	bindings := binding.NewRegistry(model)
	bindings.MustBind(binding.Binding{Concept: ontology.ImprintOutputAnnotation, Kind: binding.ServiceResource, Locator: "local:ImprintOutputAnnotator"})
	bindings.MustBind(binding.Binding{Concept: ontology.UniversalPIScore2, Kind: binding.ServiceResource, Locator: "local:HR_MC_score"})
	bindings.MustBind(binding.Binding{Concept: ontology.HRScoreAssertion, Kind: binding.ServiceResource, Locator: "local:HR_score"})
	bindings.MustBind(binding.Binding{Concept: ontology.PIScoreClassifier, Kind: binding.ServiceResource, Locator: "local:PIScoreClassifier"})
	return &Compiler{
		Bindings:     bindings,
		Resolver:     &binding.Resolver{Local: local},
		Repositories: repos,
	}
}

func compileWith(t *testing.T, c *Compiler, viewXML string) *Compiled {
	t.Helper()
	v, err := qvlang.Parse([]byte(viewXML))
	if err != nil {
		t.Fatal(err)
	}
	r, err := qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := c.Compile(r)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return compiled
}

func alwaysFail(svc services.QualityService) services.QualityService {
	return &flakyService{inner: svc, failures: 1 << 30}
}

func TestDegradeOffAbortsOnServiceFailure(t *testing.T) {
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"HR_MC_score": alwaysFail,
	})
	compiled := compileWith(t, c, qvlang.PaperViewXML)
	if _, err := compiled.Run(context.Background(), []evidence.Item{item(0), item(1)}); err == nil {
		t.Fatal("DegradeOff must abort the enactment when a QA fails")
	}
}

func TestDegradeFailClosedRejectsAndMarks(t *testing.T) {
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"HR_MC_score": alwaysFail,
	})
	c.Degraded = DegradeFailClosed
	compiled := compileWith(t, c, qvlang.PaperViewXML)

	items := make([]evidence.Item, 10)
	for i := range items {
		items[i] = item(i)
	}
	log := NewFailureLog()
	ctx := WithFailureLog(context.Background(), log)
	out, err := compiled.Run(ctx, items)
	if err != nil {
		t.Fatalf("fail-closed run must complete: %v", err)
	}
	// The filter condition needs HR_MC, which never arrived: every item
	// is rejected.
	if got := out[outputName("filter top k score", PortAccepted)].Len(); got != 0 {
		t.Errorf("fail-closed accepted %d items, want 0", got)
	}
	// Every item is marked degraded on the consolidated output.
	ann := out[OutputAnnotations]
	for _, it := range items {
		v := ann.Get(it, DegradedEvidence)
		if v.IsNull() {
			t.Fatalf("item %v not marked degraded", it)
		}
		if v.AsString() != "QA:HR_MC_score" {
			t.Errorf("degraded marker = %q, want the failed processor name", v.AsString())
		}
	}
	// The caller's log saw the failure with the full affected data set.
	fails := log.Failures()
	if len(fails) != 1 {
		t.Fatalf("failures = %d, want 1 (%v)", len(fails), fails)
	}
	if fails[0].Processor != "QA:HR_MC_score" || len(fails[0].Items) != 10 || fails[0].Err == nil {
		t.Errorf("failure = %+v", fails[0])
	}
}

func TestDegradeFailOpenAcceptsUndecided(t *testing.T) {
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"HR_MC_score": alwaysFail,
	})
	c.Degraded = DegradeFailOpen
	compiled := compileWith(t, c, qvlang.PaperViewXML)

	items := make([]evidence.Item, 10)
	for i := range items {
		items[i] = item(i)
	}
	out, err := compiled.Run(context.Background(), items)
	if err != nil {
		t.Fatalf("fail-open run must complete: %v", err)
	}
	accepted := out[outputName("filter top k score", PortAccepted)]
	if accepted.Len() != 10 {
		t.Fatalf("fail-open accepted %d items, want all 10", accepted.Len())
	}
	// Waved-through items carry their marker, so downstream can tell an
	// earned accept from a degraded one.
	if !accepted.Has(item(1), DegradedEvidence) {
		t.Error("fail-open item should carry the degraded marker")
	}
	// Evidence that did arrive (the HR score from the healthy QA) rides
	// along into the output.
	if !accepted.Has(item(0), qvlang.TagKeyFor("HR")) {
		t.Error("fail-open item should keep the evidence that did arrive")
	}
}

func TestDegradeQuarantineRoutesSplitterUndecided(t *testing.T) {
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"PIScoreClassifier": alwaysFail,
	})
	c.Degraded = DegradeQuarantine
	compiled := compileWith(t, c, splitterViewXML)

	items := make([]evidence.Item, 8)
	for i := range items {
		items[i] = item(i)
	}
	out, err := compiled.Run(context.Background(), items)
	if err != nil {
		t.Fatalf("quarantine run must complete: %v", err)
	}
	// The classifier never ran, so the "keep" branch (ScoreClass ...)
	// decides nobody; "review" (hr > 0.5) still works on the enrichment
	// evidence and claims the strong (even-index) items.
	review := out[outputName("route", "review")]
	if review.Len() != 4 {
		t.Errorf("review branch has %d items, want 4", review.Len())
	}
	q := out[QuarantineOutput]
	if q == nil {
		t.Fatal("quarantine output missing")
	}
	if q.Len() != 4 {
		t.Errorf("quarantine has %d items, want the 4 weak ones", q.Len())
	}
	for _, it := range q.Items() {
		if !q.Has(it, DegradedEvidence) {
			t.Errorf("quarantined item %v lacks the degraded marker", it)
		}
	}
	// Quarantined items are parked, not classified "none of the above".
	if def := out[outputName("route", PortDefault)]; def.Len() != 0 {
		t.Errorf("default port has %d items, want 0 (all moved to quarantine)", def.Len())
	}
}

func TestDegradeQuarantineOutputAlwaysPresent(t *testing.T) {
	c := degradeCompiler(t, nil)
	c.Degraded = DegradeQuarantine
	compiled := compileWith(t, c, qvlang.PaperViewXML)
	out, err := compiled.Run(context.Background(), []evidence.Item{item(0), item(1)})
	if err != nil {
		t.Fatal(err)
	}
	q, ok := out[QuarantineOutput]
	if !ok || q.Len() != 0 {
		t.Errorf("clean quarantine run should expose an empty quarantine output, got %v", q)
	}
}

func TestCompilerRetryRecoversTransientFailure(t *testing.T) {
	// The QA fails twice then works; with three application-level
	// attempts the run completes with full (non-degraded) results —
	// workflow.Retry is live in the compiled processors.
	flaky := &flakyService{failures: 2}
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"HR_MC_score": func(svc services.QualityService) services.QualityService {
			flaky.inner = svc
			return flaky
		},
	})
	c.RetryAttempts = 3
	compiled := compileWith(t, c, qvlang.PaperViewXML)

	items := make([]evidence.Item, 10)
	for i := range items {
		items[i] = item(i)
	}
	out, err := compiled.Run(context.Background(), items)
	if err != nil {
		t.Fatalf("retry should recover: %v", err)
	}
	if got := out[outputName("filter top k score", PortAccepted)].Len(); got != 5 {
		t.Errorf("accepted %d items, want the usual 5", got)
	}
	if flaky.callCount() != 3 {
		t.Errorf("QA invoked %d times, want 3 (2 failures + 1 success)", flaky.callCount())
	}
	if out[OutputAnnotations].Has(item(0), DegradedEvidence) {
		t.Error("recovered run must not be marked degraded")
	}
}

func TestCompilerTimeoutBoundsHangingService(t *testing.T) {
	// A hung QA host blocks until its context dies; the per-processor
	// timeout expires it and degraded mode turns it into unknown
	// evidence instead of a wedged enactment.
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"HR_MC_score": func(svc services.QualityService) services.QualityService {
			return &flakyService{inner: svc, hang: true}
		},
	})
	c.ProcessorTimeout = 20 * time.Millisecond
	c.Degraded = DegradeFailClosed
	compiled := compileWith(t, c, qvlang.PaperViewXML)

	log := NewFailureLog()
	ctx := WithFailureLog(context.Background(), log)
	done := make(chan struct{})
	var out map[string]*evidence.Map
	var err error
	go func() {
		out, err = compiled.Run(ctx, []evidence.Item{item(0), item(1)})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("enactment wedged on a hanging service despite the timeout")
	}
	if err != nil {
		t.Fatalf("degraded run must complete: %v", err)
	}
	if got := out[outputName("filter top k score", PortAccepted)].Len(); got != 0 {
		t.Errorf("accepted %d, want 0", got)
	}
	if fails := log.Failures(); len(fails) != 1 || fails[0].Processor != "QA:HR_MC_score" {
		t.Errorf("failures = %+v", fails)
	}
}

func TestAnnotatorFailureDegrades(t *testing.T) {
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"ImprintOutputAnnotator": alwaysFail,
	})
	c.Degraded = DegradeFailClosed
	compiled := compileWith(t, c, qvlang.PaperViewXML)

	log := NewFailureLog()
	ctx := WithFailureLog(context.Background(), log)
	out, err := compiled.Run(ctx, []evidence.Item{item(0), item(1), item(2)})
	if err != nil {
		t.Fatalf("annotator failure must degrade, not abort: %v", err)
	}
	if got := out[outputName("filter top k score", PortAccepted)].Len(); got != 0 {
		t.Errorf("no evidence was ever written; accepted %d, want 0", got)
	}
	found := false
	for _, f := range log.Failures() {
		if f.Processor == "Annotator:ImprintOutputAnnotator" && len(f.Items) == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("annotator failure not recorded: %+v", log.Failures())
	}
}

func TestParseDegradedMode(t *testing.T) {
	cases := map[string]DegradedMode{
		"":            DegradeOff,
		"off":         DegradeOff,
		"fail-closed": DegradeFailClosed,
		"failopen":    DegradeFailOpen,
		"quarantine":  DegradeQuarantine,
	}
	for in, want := range cases {
		got, err := ParseDegradedMode(in)
		if err != nil || got != want {
			t.Errorf("ParseDegradedMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseDegradedMode("yolo"); err == nil {
		t.Error("unknown mode should fail")
	}
	if DegradeQuarantine.String() != "quarantine" || DegradeOff.String() != "off" {
		t.Error("String() spelling drifted from ParseDegradedMode")
	}
}

// TestDegradeOffFailsRunWithCallerFailureLog: a failure log the caller
// brings does not turn a DegradeOff run into a degraded one. The run
// returns the failed QA's error, and the caller's log holds the failure.
func TestDegradeOffFailsRunWithCallerFailureLog(t *testing.T) {
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"HR_MC_score": alwaysFail,
	})
	compiled := compileWith(t, c, qvlang.PaperViewXML)
	log := NewFailureLog()
	out, err := compiled.Run(WithFailureLog(context.Background(), log), []evidence.Item{item(0), item(1)})
	if err == nil || !strings.Contains(err.Error(), "flaky: injected failure") {
		t.Fatalf("Run = %d outputs, error %v; want the QA's injected failure", len(out), err)
	}
	if fs := log.Failures(); len(fs) != 1 || fs[0].Processor != "QA:HR_MC_score" {
		t.Errorf("caller's log holds %+v, want one QA:HR_MC_score failure", fs)
	}
}

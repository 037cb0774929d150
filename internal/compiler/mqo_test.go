package compiler

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/qcache"
	"qurator/internal/qvlang"
	"qurator/internal/services"
)

// thresholdViewXML is the §5.1 paper view with a parameterised name and
// filter threshold — structurally identical views that differ only in
// their (never-shared) action, the common case MQO targets.
func thresholdViewXML(name string, threshold int) string {
	return fmt.Sprintf(`<QualityView name="%s">
  <Annotator servicename="ImprintOutputAnnotator" servicetype="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
      <var evidence="q:Coverage"/>
      <var evidence="q:Masses"/>
      <var evidence="q:PeptidesCount"/>
    </variables>
  </Annotator>
  <QualityAssertion servicename="HR MC score" servicetype="q:UniversalPIScore2" tagname="HR MC" tagsyntype="q:score">
    <variables repositoryRef="cache">
      <var variablename="coverage" evidence="q:Coverage"/>
      <var variablename="masses" evidence="q:Masses"/>
      <var variablename="peptidesCount" evidence="q:PeptidesCount"/>
      <var variablename="hitRatio" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
  <QualityAssertion servicename="HR score" servicetype="q:HRScoreAssertion" tagname="HR" tagsyntype="q:score">
    <variables repositoryRef="cache">
      <var variablename="hr" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
  <QualityAssertion servicename="PIScoreClassifier" servicetype="q:PIScoreClassifier"
                    tagsemtype="q:PIScoreClassification" tagname="ScoreClass" tagsyntype="q:class">
    <variables repositoryRef="cache">
      <var variablename="coverage2" evidence="q:Coverage"/>
      <var variablename="hitRatio2" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
  <action name="filter top k score">
    <filter><condition>ScoreClass in q:high, q:mid and HR_MC &gt; %d</condition></filter>
  </action>
</QualityView>`, name, threshold)
}

// reducedViewXML shares the annotator but runs only one of the paper
// view's QAs — a partially overlapping prefix.
func reducedViewXML(name string) string {
	return fmt.Sprintf(`<QualityView name="%s">
  <Annotator servicename="ImprintOutputAnnotator" servicetype="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
      <var evidence="q:Coverage"/>
      <var evidence="q:Masses"/>
      <var evidence="q:PeptidesCount"/>
    </variables>
  </Annotator>
  <QualityAssertion servicename="HR MC score" servicetype="q:UniversalPIScore2" tagname="HR MC" tagsyntype="q:score">
    <variables repositoryRef="cache">
      <var variablename="coverage" evidence="q:Coverage"/>
      <var variablename="masses" evidence="q:Masses"/>
      <var variablename="peptidesCount" evidence="q:PeptidesCount"/>
      <var variablename="hitRatio" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
  <action name="keep scored"><filter><condition>HR_MC &gt; 10</condition></filter></action>
</QualityView>`, name)
}

// splitterVariantXML shares the annotator prefix and routes through a
// splitter — covers the split action shape and the PortDefault group.
func splitterVariantXML(name string) string {
	return fmt.Sprintf(`<QualityView name="%s">
  <Annotator servicename="ImprintOutputAnnotator" servicetype="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
      <var evidence="q:Coverage"/>
      <var evidence="q:Masses"/>
      <var evidence="q:PeptidesCount"/>
    </variables>
  </Annotator>
  <QualityAssertion servicename="PIScoreClassifier" servicetype="q:PIScoreClassifier"
                    tagsemtype="q:PIScoreClassification" tagname="ScoreClass" tagsyntype="q:class">
    <variables repositoryRef="cache">
      <var variablename="hr" evidence="q:HitRatio"/>
      <var variablename="mc" evidence="q:Coverage"/>
    </variables>
  </QualityAssertion>
  <action name="route">
    <splitter>
      <branch name="good"><condition>ScoreClass in q:high</condition></branch>
      <branch name="maybe"><condition>ScoreClass in q:mid</condition></branch>
    </splitter>
  </action>
</QualityView>`, name)
}

// enactIndependent runs each view on its own and flattens every output to
// canonical bytes: view name → output name → encoding.
func enactIndependent(t *testing.T, views []*Compiled, items []evidence.Item) map[string]map[string]string {
	t.Helper()
	out := map[string]map[string]string{}
	for _, v := range views {
		out[v.Workflow.Name()] = runCanonical(t, v, items)
	}
	return out
}

// enactMerged merges the views, enacts once, and flattens identically.
func enactMerged(t *testing.T, views []*Compiled, items []evidence.Item) map[string]map[string]string {
	t.Helper()
	mv, err := MergeViews(views...)
	if err != nil {
		t.Fatalf("MergeViews: %v", err)
	}
	res, err := mv.Enact(context.Background(), items)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	out := map[string]map[string]string{}
	for name, vr := range res {
		if vr.Err != nil {
			t.Fatalf("view %q: %v", name, vr.Err)
		}
		enc := map[string]string{}
		for oname, m := range vr.Outputs {
			enc[oname] = canonical(t, m)
		}
		out[name] = enc
	}
	return out
}

func diffEnactments(t *testing.T, label string, want, got map[string]map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d views, want %d", label, len(got), len(want))
	}
	for vname, outputs := range want {
		gotOutputs, ok := got[vname]
		if !ok {
			t.Fatalf("%s: view %q missing from merged results", label, vname)
		}
		if len(gotOutputs) != len(outputs) {
			t.Fatalf("%s: view %q has outputs %d, want %d", label, vname, len(gotOutputs), len(outputs))
		}
		for oname, enc := range outputs {
			if gotOutputs[oname] != enc {
				t.Errorf("%s: view %q output %q diverged from independent enactment", label, vname, oname)
			}
		}
	}
}

// TestMergeViewsSharesPrefixes pins the plan structure: three views that
// differ only in their filter threshold collapse to one annotator, one
// enrichment, three QAs, one consolidation and three per-view actions —
// and the shared QA really is invoked once per merged enactment.
func TestMergeViewsSharesPrefixes(t *testing.T) {
	var hrCalls *flakyService
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"HR_score": func(svc services.QualityService) services.QualityService {
			hrCalls = &flakyService{inner: svc}
			return hrCalls
		},
	})
	views := []*Compiled{
		compileWith(t, c, thresholdViewXML("tenants-a", 20)),
		compileWith(t, c, thresholdViewXML("tenants-b", 10)),
		compileWith(t, c, thresholdViewXML("tenants-c", 30)),
	}
	mv, err := MergeViews(views...)
	if err != nil {
		t.Fatalf("MergeViews: %v", err)
	}
	// 1 annotator + 1 enrichment + 3 QAs + 1 consolidation + 3 actions.
	if got := len(mv.Workflow().Processors()); got != 9 {
		t.Fatalf("merged plan has %d processors, want 9:\n%v", got, mv.Workflow().Processors())
	}
	if got := mv.SharedPrefixes(); got != 5 {
		t.Errorf("SharedPrefixes = %d, want 5 (annotator, enrichment, 3 QAs)", got)
	}
	if got := mv.SavedPerEnactment(); got != 10 {
		t.Errorf("SavedPerEnactment = %d, want 10 (3×5 quality processors − 5 merged)", got)
	}

	items := []evidence.Item{item(0), item(1), item(2), item(3)}
	if _, err := mv.Enact(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	if got := hrCalls.callCount(); got != 1 {
		t.Errorf("shared HR_score invoked %d times in one merged enactment, want 1", got)
	}
	for _, v := range views {
		if _, err := v.Run(context.Background(), items); err != nil {
			t.Fatal(err)
		}
	}
	if got := hrCalls.callCount(); got != 4 {
		t.Errorf("HR_score at %d calls after 3 independent runs, want 4 (1 merged + 3)", got)
	}
}

// TestMergedEnactmentBitIdentical is the property at the heart of the
// tentpole: for heterogeneous view sets (identical structure, partial
// prefix overlap, filter and splitter actions) and every data-plane
// configuration (serial, sharded, sharded+cached), merged enactment's
// per-view outputs are bit-identical to independent enactment.
func TestMergedEnactmentBitIdentical(t *testing.T) {
	sets := []struct {
		label string
		xmls  []string
	}{
		{"threshold-fanout", []string{
			thresholdViewXML("mqo-a", 20), thresholdViewXML("mqo-b", 5), thresholdViewXML("mqo-c", 35)}},
		{"partial-overlap", []string{
			thresholdViewXML("mqo-full", 20), reducedViewXML("mqo-reduced"), splitterVariantXML("mqo-split")}},
		{"single-view", []string{thresholdViewXML("mqo-solo", 20)}},
	}
	plans := []struct {
		label     string
		shardSize int
		cached    bool
	}{
		{"serial", 0, false},
		{"sharded", 3, false},
		{"sharded-cached", 3, true},
	}
	for _, set := range sets {
		for _, plan := range plans {
			for _, n := range []int{0, 1, 7} {
				c := testCompiler(t)
				c.ShardSize = plan.shardSize
				c.MaxInflight = 2
				if plan.cached {
					c.Cache = qcache.New(qcache.Options{Name: fmt.Sprintf("t-mqo-%s-%s-%d", set.label, plan.label, n)})
				}
				var views []*Compiled
				for _, xml := range set.xmls {
					views = append(views, compileWith(t, c, xml))
				}
				items := make([]evidence.Item, n)
				for i := range items {
					items[i] = item(i)
				}
				want := enactIndependent(t, views, items)
				got := enactMerged(t, views, items)
				diffEnactments(t, fmt.Sprintf("%s/%s/n=%d", set.label, plan.label, n), want, got)
			}
		}
	}
}

// TestMergedDegradedEquivalence extends the bit-identity property to
// degraded enactment: with a terminally failing QA, every degraded mode —
// including two members running different modes — produces per-view
// outputs (markers, quarantine, fail-open routing included) identical to
// independent enactment.
func TestMergedDegradedEquivalence(t *testing.T) {
	type view struct {
		name      string
		threshold int
	}
	// Each mode over a two-view set and over a plan of one, whose
	// consolidated map is handed over without a clone.
	sets := [][]view{
		{{"deg-a", 20}, {"deg-b", 5}},
		{{"deg-solo", 20}},
	}
	for _, m := range []DegradedMode{DegradeFailClosed, DegradeFailOpen, DegradeQuarantine} {
		for _, set := range sets {
			c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
				"HR_score": alwaysFail,
			})
			c.Degraded = m
			var views []*Compiled
			for _, v := range set {
				views = append(views, compileWith(t, c, thresholdViewXML(v.name, v.threshold)))
			}
			items := []evidence.Item{item(0), item(1), item(2), item(3), item(4)}
			want := enactIndependent(t, views, items)
			got := enactMerged(t, views, items)
			diffEnactments(t, fmt.Sprintf("%s/%d views", m, len(views)), want, got)
		}
	}

	// Mixed per-view modes: the failure is shared, the policy is not.
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"HR_score": alwaysFail,
	})
	c.Degraded = DegradeFailOpen
	a := compileWith(t, c, thresholdViewXML("mix-a", 20))
	b := compileWith(t, c, thresholdViewXML("mix-b", 5))
	b.SetDegradedMode(DegradeQuarantine)
	items := []evidence.Item{item(0), item(1), item(2)}
	want := enactIndependent(t, []*Compiled{a, b}, items)
	got := enactMerged(t, []*Compiled{a, b}, items)
	diffEnactments(t, "mixed-modes", want, got)
}

// TestMergedViewFailsAlone pins fault isolation: when a QA unique to one
// DegradeOff view fails terminally, that view's result carries the error
// — independent enactment would have aborted it — while the sibling view
// sharing only the annotator prefix still returns bit-identical outputs.
func TestMergedViewFailsAlone(t *testing.T) {
	c := degradeCompiler(t, map[string]func(services.QualityService) services.QualityService{
		"HR_score": alwaysFail,
	})
	failing := compileWith(t, c, thresholdViewXML("iso-failing", 20)) // has HR_score
	healthy := compileWith(t, c, reducedViewXML("iso-healthy"))       // HR MC only
	items := []evidence.Item{item(0), item(1), item(2), item(3)}

	wantHealthy := runCanonical(t, healthy, items)
	if _, err := failing.Run(context.Background(), items); err == nil {
		t.Fatal("independent enactment of the failing view should abort")
	}

	mv, err := MergeViews(failing, healthy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mv.Enact(context.Background(), items)
	if err != nil {
		t.Fatalf("merged enactment should survive a single view's failure: %v", err)
	}
	if res["iso-failing"].Err == nil {
		t.Error("failing view should carry its abort error")
	} else if !strings.Contains(res["iso-failing"].Err.Error(), "HR_score") {
		t.Errorf("error %v does not name the failed service", res["iso-failing"].Err)
	}
	vr := res["iso-healthy"]
	if vr.Err != nil {
		t.Fatalf("healthy view failed: %v", vr.Err)
	}
	for oname, enc := range wantHealthy {
		if canonical(t, vr.Outputs[oname]) != enc {
			t.Errorf("healthy view output %q diverged", oname)
		}
	}

	// A plan of one fails the same way: the DegradeOff view's result
	// carries the service's own error.
	solo, err := MergeViews(failing)
	if err != nil {
		t.Fatal(err)
	}
	res, err = solo.Enact(context.Background(), items)
	if err != nil {
		t.Fatalf("plan of one: whole-plan failure instead of a view error: %v", err)
	}
	if err := res["iso-failing"].Err; err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("plan of one: view error = %v, want the injected failure", err)
	}
}

// TestTwoViewsShareOneCacheEntry is the satellite cache-sharing proof:
// two views invoking the same QA over the same shard resolve to the same
// qcache key, so the second view's QA invocations are all hits and the
// entry count does not grow for the shared prefix.
func TestTwoViewsShareOneCacheEntry(t *testing.T) {
	cache := qcache.New(qcache.Options{Name: "t-mqo-share"})
	c := testCompiler(t)
	c.ShardSize = 8
	c.Cache = cache
	a := compileWith(t, c, thresholdViewXML("cache-a", 20))
	b := compileWith(t, c, thresholdViewXML("cache-b", 5))
	items := []evidence.Item{item(0), item(1), item(2), item(3)}

	if _, err := a.Run(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	// One shard through 3 QAs + 1 filter = 4 distinct entries.
	if after.Misses != 4 || after.Hits != 0 {
		t.Fatalf("first view: misses=%d hits=%d, want 4/0", after.Misses, after.Hits)
	}
	if _, err := b.Run(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	after = cache.Stats()
	// Second view: the 3 QA invocations hit the first view's entries; only
	// its own filter (different condition) misses.
	if after.Hits != 3 {
		t.Errorf("second view hit %d cached entries, want 3 (the shared QAs)", after.Hits)
	}
	if after.Misses != 5 {
		t.Errorf("misses=%d, want 5 (4 + second view's filter)", after.Misses)
	}
	if after.Entries != 5 {
		t.Errorf("entries=%d, want 5 — shared QA invocations must share one entry", after.Entries)
	}

	// A merged enactment of both views over the same items is pure hits.
	mv, err := MergeViews(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mv.Enact(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	final := cache.Stats()
	if final.Misses != after.Misses {
		t.Errorf("merged enactment missed (%d → %d): shared fingerprints must reuse cache entries",
			after.Misses, final.Misses)
	}
}

// TestMergedViewsOwnTheirAnnotations: two views reading one
// merged consolidation each get an annotation map of their own. A cell
// written into one view's map reaches neither its sibling's map nor the
// results of a later enactment (served from the same response cache).
func TestMergedViewsOwnTheirAnnotations(t *testing.T) {
	c := testCompiler(t)
	c.Cache = qcache.New(qcache.Options{Name: "t-mqo-own"})
	a := compileWith(t, c, thresholdViewXML("own-a", 20))
	b := compileWith(t, c, thresholdViewXML("own-b", 10))
	mv, err := MergeViews(a, b)
	if err != nil {
		t.Fatal(err)
	}
	items := []evidence.Item{item(0), item(1), item(2), item(3)}
	first, err := mv.Enact(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	annA := first["own-a"].Outputs[OutputAnnotations]
	annB := first["own-b"].Outputs[OutputAnnotations]
	want := canonical(t, annB)
	if canonical(t, annA) != want {
		t.Fatal("views sharing one consolidation should see the same annotations")
	}

	marker := ontology.Q("OwnershipMarker")
	annA.Set(item(0), marker, evidence.Float(1))
	if canonical(t, annB) != want {
		t.Error("a write into view own-a's annotations reached view own-b's")
	}
	second, err := mv.Enact(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for name, vr := range second {
		if got := canonical(t, vr.Outputs[OutputAnnotations]); got != want {
			t.Errorf("view %q: a later enactment saw the earlier write", name)
		}
	}
}

// TestMergedConditionEditsPropagate: the merged plan reuses member action
// instances, so the paper's explore loop (edit a condition, re-run) works
// without re-merging.
func TestMergedConditionEditsPropagate(t *testing.T) {
	c := testCompiler(t)
	a := compileWith(t, c, thresholdViewXML("edit-a", 20))
	b := compileWith(t, c, thresholdViewXML("edit-b", 20))
	mv, err := MergeViews(a, b)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]evidence.Item, 8)
	for i := range items {
		items[i] = item(i)
	}
	first, err := mv.Enact(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetFilterCondition("filter top k score", "HR_MC > -1000"); err != nil {
		t.Fatal(err)
	}
	second, err := mv.Enact(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	out := outputName("filter top k score", PortAccepted)
	if got, was := second["edit-b"].Outputs[out].Len(), first["edit-b"].Outputs[out].Len(); got <= was {
		t.Errorf("loosened condition kept %d ≤ %d items", got, was)
	}
	if got, was := second["edit-a"].Outputs[out].Len(), first["edit-a"].Outputs[out].Len(); got != was {
		t.Errorf("sibling view's output changed (%d → %d) after editing edit-b", was, got)
	}
}

// TestMergeViewsRefusals pins the safety checks: duplicate view names,
// and view sets whose merged annotator ordering could differ from
// independent enactment.
func TestMergeViewsRefusals(t *testing.T) {
	c := testCompiler(t)
	a := compileWith(t, c, thresholdViewXML("same-name", 20))
	b := compileWith(t, c, thresholdViewXML("same-name", 5))
	if _, err := MergeViews(a, b); err == nil || !strings.Contains(err.Error(), "duplicate view name") {
		t.Errorf("duplicate names: err = %v", err)
	}

	if _, err := MergeViews(); err == nil {
		t.Error("empty view set should be refused")
	}

	// A view that reads evidence another view's annotator writes — without
	// running that annotator itself — is order-sensitive under merging.
	noAnnXML := `<QualityView name="reader-only">
  <QualityAssertion servicename="HR score" servicetype="q:HRScoreAssertion" tagname="HR" tagsyntype="q:score">
    <variables repositoryRef="cache">
      <var variablename="hr" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
  <action name="keep"><filter><condition>HR &gt; 0.5</condition></filter></action>
</QualityView>`
	reader := compileWith(t, c, noAnnXML)
	writer := compileWith(t, c, thresholdViewXML("writer", 20))
	if _, err := MergeViews(writer, reader); err == nil || !strings.Contains(err.Error(), "cannot merge") {
		t.Errorf("order-sensitive set: err = %v", err)
	}
	// Alone (or with views that don't write its cells) it merges fine.
	if _, err := MergeViews(reader); err != nil {
		t.Errorf("reader-only view should merge alone: %v", err)
	}
}

// TestCompileRejectsNormalisedNameCollisions pins the satellite bugfix:
// two declarations whose names normalise to the same processor name are
// rejected up front, naming both colliding declarations.
func TestCompileRejectsNormalisedNameCollisions(t *testing.T) {
	actionCollision := `<QualityView name="collide-actions">
  <Annotator servicename="ImprintOutputAnnotator" servicetype="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache"><var evidence="q:HitRatio"/></variables>
  </Annotator>
  <QualityAssertion servicename="HR score" servicetype="q:HRScoreAssertion" tagname="HR" tagsyntype="q:score">
    <variables repositoryRef="cache"><var variablename="hr" evidence="q:HitRatio"/></variables>
  </QualityAssertion>
  <action name="top k"><filter><condition>HR &gt; 0.5</condition></filter></action>
  <action name="top_k"><filter><condition>HR &gt; 0.9</condition></filter></action>
</QualityView>`
	v, err := qvlang.Parse([]byte(actionCollision))
	if err != nil {
		t.Fatal(err)
	}
	r, err := qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatal(err)
	}
	_, err = testCompiler(t).Compile(r)
	if err == nil {
		t.Fatal("colliding action names should fail to compile")
	}
	for _, want := range []string{`"top k"`, `"top_k"`, "collide", "normalise"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}

	qaCollision := `<QualityView name="collide-qas">
  <Annotator servicename="ImprintOutputAnnotator" servicetype="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache"><var evidence="q:HitRatio"/></variables>
  </Annotator>
  <QualityAssertion servicename="HR score" servicetype="q:HRScoreAssertion" tagname="HR" tagsyntype="q:score">
    <variables repositoryRef="cache"><var variablename="hr" evidence="q:HitRatio"/></variables>
  </QualityAssertion>
  <QualityAssertion servicename="HR_score" servicetype="q:HRScoreAssertion" tagname="HR2" tagsyntype="q:score">
    <variables repositoryRef="cache"><var variablename="hr2" evidence="q:HitRatio"/></variables>
  </QualityAssertion>
  <action name="keep"><filter><condition>HR &gt; 0.5</condition></filter></action>
</QualityView>`
	v, err = qvlang.Parse([]byte(qaCollision))
	if err != nil {
		t.Fatal(err)
	}
	r, err = qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err = testCompiler(t).Compile(r); err == nil || !strings.Contains(err.Error(), "assertion") {
		t.Errorf("colliding QA names: err = %v", err)
	}
}

// TestSetDegradedModeConcurrentWithEnactment pins the satellite bugfix:
// flipping the degraded policy while enactments are in flight is
// race-free (run under -race) and each run applies one policy coherently.
func TestSetDegradedModeConcurrentWithEnactment(t *testing.T) {
	compiled := compilePaperView(t)
	items := []evidence.Item{item(0), item(1), item(2)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		modes := []DegradedMode{DegradeOff, DegradeFailOpen, DegradeQuarantine, DegradeFailClosed}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				compiled.SetDegradedMode(modes[i%len(modes)])
			}
		}
	}()
	for i := 0; i < 25; i++ {
		if _, err := compiled.Run(context.Background(), items); err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// noQAViewXML has an annotator and a filter over its evidence but no
// QAs: the enrichment output is consolidated directly.
const noQAViewXML = `<QualityView name="evidence-only">
  <Annotator servicename="ImprintOutputAnnotator" servicetype="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
      <var evidence="q:Coverage"/>
    </variables>
  </Annotator>
  <action name="keep hits"><filter><condition>HitRatio &gt; 0.5</condition></filter></action>
</QualityView>`

// TestPlanOfOneIsTheViewsWorkflow: merging one view lays out the workflow
// its Compile holds, with the view's own names — no fingerprint suffix on
// processors, no view prefix on outputs.
func TestPlanOfOneIsTheViewsWorkflow(t *testing.T) {
	c := testCompiler(t)
	for _, xml := range []string{qvlang.PaperViewXML, splitterViewXML, noQAViewXML} {
		v := compileWith(t, c, xml)
		mv, err := MergeViews(v)
		if err != nil {
			t.Fatalf("MergeViews(%s): %v", v.Name(), err)
		}
		got, want := mv.Workflow(), v.Workflow
		for _, cmp := range []struct {
			what      string
			got, want any
		}{
			{"Name", got.Name(), want.Name()},
			{"Processors", got.Processors(), want.Processors()},
			{"DataLinks", got.DataLinks(), want.DataLinks()},
			{"ControlLinks", got.ControlLinks(), want.ControlLinks()},
			{"InputPorts", got.InputPorts(), want.InputPorts()},
			{"OutputPorts", got.OutputPorts(), want.OutputPorts()},
		} {
			if !reflect.DeepEqual(cmp.got, cmp.want) {
				t.Errorf("%s: plan of one %s = %v, view's workflow has %v", v.Name(), cmp.what, cmp.got, cmp.want)
			}
		}
	}
}

package ispider

import (
	"context"
	"testing"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/qvlang"
)

func smallWorld(t testing.TB) *World {
	t.Helper()
	params := DefaultWorldParams()
	params.DBSize = 60
	params.SpotCount = 6
	w, err := BuildWorld(params)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorldDeterministic(t *testing.T) {
	p := DefaultWorldParams()
	p.DBSize, p.SpotCount = 40, 4
	w1, err := BuildWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := BuildWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	pls1, _ := w1.Pedro.PeakLists(w1.ExperimentID)
	pls2, _ := w2.Pedro.PeakLists(w2.ExperimentID)
	if len(pls1) != 4 || len(pls2) != 4 {
		t.Fatalf("spot counts: %d, %d", len(pls1), len(pls2))
	}
	for i := range pls1 {
		if len(pls1[i].Peaks) != len(pls2[i].Peaks) {
			t.Fatal("worlds differ under the same seed")
		}
	}
	// Ground truth is recorded and references database proteins.
	truth := w1.Truth("spot01")
	if len(truth) != p.ProteinsPerSpot {
		t.Errorf("truth size = %d", len(truth))
	}
	if w1.Truth("ghost") != nil {
		t.Error("unknown spot should have nil truth")
	}
}

func TestBuildWorldValidation(t *testing.T) {
	p := DefaultWorldParams()
	p.DBSize, p.ProteinsPerSpot = 1, 5
	if _, err := BuildWorld(p); err == nil {
		t.Error("db smaller than sample should fail")
	}
	p = DefaultWorldParams()
	p.SpotCount = 0
	if _, err := BuildWorld(p); err == nil {
		t.Error("zero spots should fail")
	}
}

func TestHitItemRoundTrip(t *testing.T) {
	item := HitItem("spot03", "SYN00042", 7)
	spot, acc, rank, err := ParseHitItem(item)
	if err != nil {
		t.Fatal(err)
	}
	if spot != "spot03" || acc != "SYN00042" || rank != 7 {
		t.Errorf("round trip = %s, %s, %d", spot, acc, rank)
	}
	if _, _, _, err := ParseHitItem(evidence.Item{}); err == nil {
		t.Error("zero item should fail")
	}
}

func TestRunBaselineShape(t *testing.T) {
	w := smallWorld(t)
	out, err := RunBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) == 0 {
		t.Fatal("baseline produced no identifications")
	}
	if out.Accepted.Len() != len(out.Entries) {
		t.Errorf("items %d != entries %d", out.Accepted.Len(), len(out.Entries))
	}
	if len(out.TermCounts) == 0 {
		t.Fatal("no GO terms")
	}
	// Every spot yields at least one hit (true proteins are findable).
	spots := map[string]bool{}
	for _, e := range out.Entries {
		spots[e.SpotID] = true
	}
	if len(spots) != w.Params.SpotCount {
		t.Errorf("hits from %d spots, want %d", len(spots), w.Params.SpotCount)
	}
	// The true proteins are found (high recall of the raw search).
	found := map[string]bool{}
	for _, e := range out.Entries {
		if w.Truth(e.SpotID)[e.Hit.Protein.Accession] {
			found[e.SpotID+"/"+e.Hit.Protein.Accession] = true
		}
	}
	totalTrue := w.Params.SpotCount * w.Params.ProteinsPerSpot
	if len(found) < totalTrue*3/4 {
		t.Errorf("raw search found only %d/%d true proteins", len(found), totalTrue)
	}
	// And false positives exist — the quality problem to solve.
	if len(out.Entries) <= totalTrue {
		t.Errorf("no false positives among %d identifications (want > %d)", len(out.Entries), totalTrue)
	}
}

func TestPipelineRunEndToEnd(t *testing.T) {
	w := smallWorld(t)
	p, err := BuildPipeline(w, "")
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	// The §5.1 default condition includes an absolute score threshold
	// (HR_MC > 20) whose scale depends on the lab; for the small noisy
	// test world use the distribution-relative high class (as §6.3 does).
	if err := p.Compiled.SetFilterCondition("filter top k score", "ScoreClass in q:high"); err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	baseline, err := RunBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted.Len() == 0 {
		t.Fatal("quality view filtered out everything")
	}
	if out.Accepted.Len() >= baseline.Accepted.Len() {
		t.Errorf("quality view kept %d of %d — should reduce the ID list",
			out.Accepted.Len(), baseline.Accepted.Len())
	}
	// Survivors carry their QA evidence (the lens's annotations).
	for _, item := range out.Accepted.Items() {
		if !out.Accepted.Has(item, qvlang.TagKeyFor("HR_MC")) {
			t.Errorf("survivor %v lacks HR_MC score", item)
		}
		cls := out.Accepted.Class(item, ontology.PIScoreClassification)
		if cls != ontology.ClassHigh && cls != ontology.ClassMid {
			t.Errorf("survivor %v has class %v", item, cls)
		}
	}
	// Filtered term counts are dominated by baseline counts.
	for term, n := range out.TermCounts {
		if n > baseline.TermCounts[term] {
			t.Errorf("term %s: filtered %d > original %d", term, n, baseline.TermCounts[term])
		}
	}
}

func TestPipelineRerunIsStable(t *testing.T) {
	w := smallWorld(t)
	p, err := BuildPipeline(w, "")
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Accepted.Len() != second.Accepted.Len() {
		t.Errorf("re-run changed results: %d vs %d", first.Accepted.Len(), second.Accepted.Len())
	}
}

func TestFigure7ShapeMatchesPaper(t *testing.T) {
	w := smallWorld(t)
	res, _, err := RunFigure7Timed(w)
	if err != nil {
		t.Fatalf("RunFigure7Timed: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no Figure 7 rows")
	}
	// The filter reduces the number of protein IDs (the paper's "overall
	// effect ... is to reduce the number of protein IDs").
	if !(res.IdentificationsKept < res.IdentificationsOriginal) {
		t.Errorf("IDs %d -> %d: no reduction", res.IdentificationsOriginal, res.IdentificationsKept)
	}
	if !(res.TotalFiltered < res.TotalOriginal) {
		t.Errorf("occurrences %d -> %d: no reduction", res.TotalOriginal, res.TotalFiltered)
	}
	// Rows are in ratio order and ratios are within [0, 1].
	for i, row := range res.Rows {
		if row.Ratio < 0 || row.Ratio > 1 {
			t.Errorf("row %d ratio %v out of range", i, row.Ratio)
		}
		if row.RatioRank != i+1 {
			t.Errorf("row %d has RatioRank %d", i, row.RatioRank)
		}
		if i > 0 && res.Rows[i].Ratio > res.Rows[i-1].Ratio {
			t.Error("rows not sorted by ratio")
		}
	}
	// The quality view significantly alters the ranking: some surviving
	// term moved between the frequency ranking and the ratio ranking
	// (paper: a 6-occurrence term ranked first, a 14-occurrence term
	// sank).
	if res.RankDisplacement == 0 {
		t.Error("ratio ranking identical to frequency ranking — no reordering")
	}
	moved := false
	for _, row := range res.Rows {
		if row.Filtered > 0 && row.OriginalRank != row.RatioRank {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("no surviving term changed rank")
	}
	// Formatting smoke test.
	if s := res.Format(); len(s) == 0 {
		t.Error("empty Format output")
	}
}

func TestFigure7PaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale world in -short mode")
	}
	// The paper's scale: 10 spots → "about 500 related GO terms".
	w, err := BuildWorld(DefaultWorldParams())
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := RunBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range baseline.TermCounts {
		total += n
	}
	if total < 200 || total > 1200 {
		t.Errorf("GO-term occurrences = %d, want paper-order (~500)", total)
	}
}

func TestQAComparisonAblation(t *testing.T) {
	w := smallWorld(t)
	rows, err := RunQAComparison(w)
	if err != nil {
		t.Fatalf("RunQAComparison: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]PRStats{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Precision < 0 || r.Precision > 1 || r.Recall < 0 || r.Recall > 1 {
			t.Errorf("%s: precision/recall out of range: %+v", r.Name, r)
		}
	}
	// Every quality criterion must beat the unfiltered baseline precision.
	baseline, err := RunBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	basePrecision := 0.0
	trueCnt := 0
	for _, e := range baseline.Entries {
		if w.Truth(e.SpotID)[e.Hit.Protein.Accession] {
			trueCnt++
		}
	}
	basePrecision = float64(trueCnt) / float64(len(baseline.Entries))
	for _, r := range rows {
		if r.Kept > 0 && r.Precision < basePrecision {
			t.Errorf("%s: precision %.3f below baseline %.3f", r.Name, r.Precision, basePrecision)
		}
	}
	// The selective criteria must strictly beat the baseline.
	for _, name := range []string{"classifier class=high", "HR+MC score > avg+sd"} {
		if r := byName[name]; r.Precision <= basePrecision {
			t.Errorf("%s: precision %.3f does not beat baseline %.3f", name, r.Precision, basePrecision)
		}
	}
	// The strict high-class filter is at least as precise as high+mid.
	high := byName["classifier class=high"]
	highMid := byName["classifier class in high,mid"]
	if high.Precision < highMid.Precision {
		t.Errorf("high (%.3f) should be ≥ high+mid (%.3f) precision", high.Precision, highMid.Precision)
	}
	if high.Recall > highMid.Recall {
		t.Errorf("high recall (%.3f) should be ≤ high+mid (%.3f)", high.Recall, highMid.Recall)
	}
	if s := FormatPRTable("A2", rows); len(s) == 0 {
		t.Error("empty table")
	}
}

func TestThresholdSweepAblation(t *testing.T) {
	w := smallWorld(t)
	points, err := RunThresholdSweep(w, []int{1, 3, 5})
	if err != nil {
		t.Fatalf("RunThresholdSweep: %v", err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	// Stricter cuts keep fewer items.
	if !(points[2].Kept <= points[1].Kept && points[1].Kept <= points[0].Kept) {
		t.Errorf("cut strictness not monotone: %d, %d, %d",
			points[0].Kept, points[1].Kept, points[2].Kept)
	}
	// Larger k keeps more items and never less recall.
	k1, k3, k5 := points[3], points[4], points[5]
	if !(k1.Kept <= k3.Kept && k3.Kept <= k5.Kept) {
		t.Errorf("top-k size not monotone: %d, %d, %d", k1.Kept, k3.Kept, k5.Kept)
	}
	if k1.Recall > k3.Recall || k3.Recall > k5.Recall {
		t.Errorf("top-k recall not monotone: %.3f, %.3f, %.3f", k1.Recall, k3.Recall, k5.Recall)
	}
}

func TestTermRanking(t *testing.T) {
	counts := map[string]int{"GO:2": 5, "GO:1": 5, "GO:3": 9, "GO:4": 1}
	got := TermRanking(counts)
	want := []string{"GO:3", "GO:1", "GO:2", "GO:4"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranking = %v, want %v", got, want)
		}
	}
}

func BenchmarkPipelineRun(b *testing.B) {
	params := DefaultWorldParams()
	params.DBSize, params.SpotCount = 60, 4
	w, err := BuildWorld(params)
	if err != nil {
		b.Fatal(err)
	}
	p, err := BuildPipeline(w, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

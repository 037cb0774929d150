package provenance

import (
	"fmt"
	"testing"
	"time"

	"qurator/internal/ontology"
)

func sampleRecord(i int) Record {
	return Record{
		View:      "protein-id-quality",
		Started:   time.Date(2006, 9, 12, 10, 0, i, 0, time.UTC),
		Duration:  17 * time.Millisecond,
		InputSize: 100,
		Outputs:   map[string]int{"filter_top_k_score:accepted": 18 + i},
		Conditions: map[string]string{
			"filter top k score": fmt.Sprintf("ScoreClass in q:high and HR_MC > %d", i),
		},
	}
}

func TestRecordAndLastRun(t *testing.T) {
	l := NewLog()
	if _, ok := l.LastRun(); ok {
		t.Fatal("empty log should have no last run")
	}
	run, err := l.Record(sampleRecord(0))
	if err != nil || run.IsZero() || l.Len() != 1 {
		t.Fatalf("Record = %v, %v, Len = %d", run, err, l.Len())
	}
	got, ok := l.LastRun()
	if !ok {
		t.Fatal("LastRun missing")
	}
	want := sampleRecord(0)
	if got.View != want.View || got.InputSize != want.InputSize {
		t.Errorf("LastRun = %+v", got)
	}
	if !got.Started.Equal(want.Started) {
		t.Errorf("Started = %v, want %v", got.Started, want.Started)
	}
	if got.Duration != want.Duration {
		t.Errorf("Duration = %v", got.Duration)
	}
	if got.Outputs["filter_top_k_score:accepted"] != 18 {
		t.Errorf("Outputs = %v", got.Outputs)
	}
	if got.Conditions["filter top k score"] == "" {
		t.Errorf("Conditions = %v", got.Conditions)
	}
}

func TestRunsOrderAndSequence(t *testing.T) {
	l := NewLog()
	for i := 0; i < 3; i++ {
		l.Record(sampleRecord(i))
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	// LastRun reflects the most recent record.
	got, _ := l.LastRun()
	if got.Outputs["filter_top_k_score:accepted"] != 20 {
		t.Errorf("LastRun outputs = %v", got.Outputs)
	}
}

func TestProvenanceIsQueryable(t *testing.T) {
	// The exploration history answers "which condition produced which
	// output size?" via SPARQL.
	l := NewLog()
	for i := 0; i < 3; i++ {
		l.Record(sampleRecord(i))
	}
	res, err := l.Query(fmt.Sprintf(`PREFIX q: <%s>
		SELECT ?run ?expr ?size WHERE {
			?run a q:QualityProcessRun .
			?run q:usedCondition ?c .
			?c q:conditionExpression ?expr .
			?run q:producedOutput ?o .
			?o q:outputSize ?size .
			FILTER (?size >= 19)
		}`, ontology.QuratorNS))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Bindings) != 2 {
		t.Fatalf("rows = %d, want 2 (runs with ≥19 survivors)", len(res.Bindings))
	}
	for _, b := range res.Bindings {
		if b["expr"].Value() == "" {
			t.Error("condition expression missing in results")
		}
	}
}

func TestGraphSnapshotIsolated(t *testing.T) {
	l := NewLog()
	l.Record(sampleRecord(0))
	g := l.Graph()
	n := g.Len()
	l.Record(sampleRecord(1))
	if g.Len() != n {
		t.Error("Graph snapshot should not grow with later records")
	}
}

package annotstore

import (
	"testing"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

func TestRecordedAtStampsWrites(t *testing.T) {
	fixed := time.Date(2006, 9, 12, 10, 0, 0, 0, time.UTC)
	restore := SetClock(func() time.Time { return fixed })
	defer restore()

	r := New("default", true)
	p := protein("P1")
	if err := r.Put(Annotation{Item: p, Type: ontology.EvidenceCode, Value: evidence.String_("TAS")}); err != nil {
		t.Fatal(err)
	}
	if got := r.RecordedAt(p, ontology.EvidenceCode); !got.Equal(fixed) {
		t.Errorf("RecordedAt = %v, want %v", got, fixed)
	}
	if got := r.RecordedAt(p, ontology.HitRatio); !got.IsZero() {
		t.Errorf("absent annotation RecordedAt = %v, want zero", got)
	}
	// Overwriting refreshes the stamp.
	later := fixed.Add(time.Hour)
	SetClock(func() time.Time { return later })
	if err := r.Put(Annotation{Item: p, Type: ontology.EvidenceCode, Value: evidence.String_("IDA")}); err != nil {
		t.Fatal(err)
	}
	if got := r.RecordedAt(p, ontology.EvidenceCode); !got.Equal(later) {
		t.Errorf("RecordedAt after overwrite = %v, want %v", got, later)
	}
}

func TestExpireBefore(t *testing.T) {
	base := time.Date(2006, 9, 12, 10, 0, 0, 0, time.UTC)
	restore := SetClock(func() time.Time { return base })
	defer restore()

	r := New("default", true)
	old := protein("OLD")
	if err := r.Put(Annotation{Item: old, Type: ontology.EvidenceCode, Value: evidence.String_("TAS")}); err != nil {
		t.Fatal(err)
	}
	SetClock(func() time.Time { return base.Add(48 * time.Hour) })
	fresh := protein("FRESH")
	if err := r.Put(Annotation{Item: fresh, Type: ontology.EvidenceCode, Value: evidence.String_("IDA")}); err != nil {
		t.Fatal(err)
	}

	removed, err := r.ExpireBefore(base.Add(24 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("ExpireBefore removed %d, want 1", removed)
	}
	if _, ok := r.Get(old, ontology.EvidenceCode); ok {
		t.Error("stale annotation should be gone")
	}
	if v, ok := r.Get(fresh, ontology.EvidenceCode); !ok || v.AsString() != "IDA" {
		t.Error("fresh annotation should survive")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	// Idempotent on a fresh store.
	if removed, err := r.ExpireBefore(base.Add(24 * time.Hour)); err != nil || removed != 0 {
		t.Errorf("second expiry removed %d, err %v", removed, err)
	}
}

func TestExpireBeforeTreatsUnstampedAsStale(t *testing.T) {
	// Annotations written before freshness stamps existed have no stamp;
	// a conservative expiry removes them. Simulate one by stripping the
	// stamp statement from a fresh write.
	r := New("default", true)
	p := protein("P1")
	if err := r.Put(Annotation{Item: p, Type: ontology.EvidenceCode, Value: evidence.String_("TAS")}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range r.graph.Match(rdf.Term{}, recordedAt, rdf.Term{}) {
		r.graph.Remove(tr)
	}
	if _, ok := r.Get(p, ontology.EvidenceCode); !ok {
		t.Fatal("stripping the stamp lost the annotation")
	}
	if removed, err := r.ExpireBefore(time.Now()); err != nil || removed != 1 {
		t.Errorf("unstamped annotation should expire, removed %d, err %v", removed, err)
	}
}

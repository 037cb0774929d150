package stream_test

import (
	"bytes"
	"context"
	"testing"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/stream"
)

func canonical(t *testing.T, m *evidence.Map) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.WriteCanonical(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFiredWindowMapNeverMutated pins the invariant that lets the count
// windower retain a fired job's map without cloning it: neither the
// enactment of the job nor a later late arrival into the same window
// changes the map the job carries. The late arrival re-fires with a new
// map of its own.
func TestFiredWindowMapNeverMutated(t *testing.T) {
	cfg := stream.Config{Window: 4}
	e, err := stream.New(compilePaperView(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	item := func(i int, hr float64) stream.Item {
		return stream.Item{ID: hit(i), Evidence: map[evidence.Key]evidence.Value{
			ontology.HitRatio: evidence.Float(hr),
			ontology.Masses:   evidence.Int(int64(10 + i)),
		}}
	}
	w, err := stream.NewWindower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fired []stream.FiredJob
	for i := 0; i < 4; i++ {
		js, err := w.Push(item(i, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, js...)
	}
	if len(fired) != 1 {
		t.Fatalf("setup: %d fires, want 1", len(fired))
	}
	job := fired[0]
	atFire := canonical(t, job.Map())

	ctx := context.Background()
	if _, err := e.Enact(ctx, job); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, job.Map()), atFire) {
		t.Fatal("enactment mutated the fired job's map")
	}

	late, err := w.Push(item(0, 0.99)) // item 0 re-arrives with new evidence
	if err != nil {
		t.Fatal(err)
	}
	if len(late) != 1 || !late[0].Late() {
		t.Fatalf("re-arrival fired %d jobs, want 1 superseding re-fire", len(late))
	}
	if !bytes.Equal(canonical(t, job.Map()), atFire) {
		t.Fatal("a late arrival mutated the original job's map")
	}
	if v, _ := late[0].Map().Get(hit(0), ontology.HitRatio).AsFloat(); v != 0.99 {
		t.Fatalf("re-fire map carries HitRatio %v for the late item, want 0.99", v)
	}
	lateAtFire := canonical(t, late[0].Map())
	if _, err := e.Enact(ctx, late[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, late[0].Map()), lateAtFire) {
		t.Fatal("enactment mutated the re-fire's map")
	}
	if !bytes.Equal(canonical(t, job.Map()), atFire) {
		t.Fatal("enacting the re-fire mutated the original job's map")
	}
}

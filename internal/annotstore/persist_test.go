package annotstore

import (
	"testing"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/mstore"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

func testStoreOpts() mstore.Options {
	return mstore.Options{Fsync: mstore.FsyncNever, NoBackground: true}
}

func reopen(t *testing.T, dir string) *Repository {
	t.Helper()
	r := New("default", true)
	if err := r.Persist(dir, testStoreOpts()); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPersistPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	r := reopen(t, dir)
	item := rdf.IRI("urn:lsid:x:1")
	if err := r.Put(Annotation{Item: item, Type: ontology.Q("HitRatio"), Value: evidence.Float(0.5)}); err != nil {
		t.Fatal(err)
	}
	// Overwrite: the delete+add must land in one durable batch.
	if err := r.Put(Annotation{Item: item, Type: ontology.Q("HitRatio"), Value: evidence.Float(0.9)}); err != nil {
		t.Fatal(err)
	}
	if err := r.CloseStore(); err != nil {
		t.Fatal(err)
	}

	r2 := reopen(t, dir)
	defer r2.CloseStore()
	v, ok := r2.Get(item, ontology.Q("HitRatio"))
	if !ok {
		t.Fatal("annotation lost")
	}
	if f, _ := v.AsFloat(); f != 0.9 {
		t.Fatalf("recovered %v, want the overwritten 0.9", f)
	}
	if n := r2.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (overwrite must not duplicate)", n)
	}
}

func TestPersistClearAndExpire(t *testing.T) {
	dir := t.TempDir()
	restore := SetClock(func() time.Time { return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) })
	r := reopen(t, dir)
	for _, id := range []string{"a", "b", "c"} {
		if err := r.Put(Annotation{
			Item: rdf.IRI("urn:lsid:x:" + id), Type: ontology.Q("HitRatio"), Value: evidence.Float(0.5),
		}); err != nil {
			t.Fatal(err)
		}
	}
	restore()

	// Expire everything stamped before "now": all three.
	n, err := r.ExpireBefore(time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ExpireBefore removed %d, want 3", n)
	}
	if err := r.Put(Annotation{
		Item: rdf.IRI("urn:lsid:x:new"), Type: ontology.Q("HitRatio"), Value: evidence.Float(1),
	}); err != nil {
		t.Fatal(err)
	}
	r.CloseStore()

	r2 := reopen(t, dir)
	if r2.Len() != 1 {
		t.Fatalf("after expiry+restart Len = %d, want 1", r2.Len())
	}
	// And a durable Clear.
	if err := r2.Clear(); err != nil {
		t.Fatal(err)
	}
	r2.CloseStore()
	r3 := reopen(t, dir)
	defer r3.CloseStore()
	if r3.Len() != 0 {
		t.Fatalf("after Clear+restart Len = %d, want 0", r3.Len())
	}
}

func TestPersistFoldsExistingContent(t *testing.T) {
	r := New("default", true)
	if err := r.Put(Annotation{
		Item: rdf.IRI("urn:lsid:x:pre"), Type: ontology.Q("HitRatio"), Value: evidence.Float(0.3),
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := r.Persist(dir, testStoreOpts()); err != nil {
		t.Fatal(err)
	}
	if err := r.Persist(dir, testStoreOpts()); err == nil {
		t.Fatal("second Persist must fail")
	}
	r.CloseStore()

	r2 := reopen(t, dir)
	defer r2.CloseStore()
	if _, ok := r2.Get(rdf.IRI("urn:lsid:x:pre"), ontology.Q("HitRatio")); !ok {
		t.Fatal("pre-Persist annotation not folded into the store")
	}
}

func TestObserverFiresOnPut(t *testing.T) {
	r := New("default", true)
	var seen []Annotation
	r.SetObserver(func(a Annotation, at time.Time) {
		if at.IsZero() {
			t.Error("observer got zero timestamp")
		}
		seen = append(seen, a)
	})
	if err := r.Put(Annotation{
		Item: rdf.IRI("urn:lsid:x:1"), Type: ontology.Q("HitRatio"), Value: evidence.Float(0.5),
	}); err != nil {
		t.Fatal(err)
	}
	// Failed puts must not notify.
	if err := r.Put(Annotation{Item: rdf.IRI("urn:lsid:x:2"), Type: ontology.Q("HitRatio")}); err == nil {
		t.Fatal("want error for null value")
	}
	if len(seen) != 1 || seen[0].Type != ontology.Q("HitRatio") {
		t.Fatalf("observer saw %v", seen)
	}
	r.SetObserver(nil)
	if err := r.Put(Annotation{
		Item: rdf.IRI("urn:lsid:x:3"), Type: ontology.Q("HitRatio"), Value: evidence.Float(0.5),
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatal("removed observer still fired")
	}
}

// TestPersistRefusesUnreadableItem: an item IRI that the store's
// N-Triples records could not read back is refused at Put, so the
// repository still reopens.
func TestPersistRefusesUnreadableItem(t *testing.T) {
	dir := t.TempDir()
	r := reopen(t, dir)
	bad := Annotation{Item: rdf.IRI("urn:x> <urn:y"), Type: ontology.Q("HitRatio"), Value: evidence.Float(0.5)}
	if err := r.Put(bad); err == nil {
		t.Fatal("Put accepted an item IRI containing '>'")
	}
	good := Annotation{Item: rdf.IRI("urn:x"), Type: ontology.Q("HitRatio"), Value: evidence.Float(0.5)}
	if err := r.Put(good); err != nil {
		t.Fatal(err)
	}
	if err := r.CloseStore(); err != nil {
		t.Fatal(err)
	}
	r2 := reopen(t, dir)
	defer r2.CloseStore()
	if _, ok := r2.Get(good.Item, good.Type); !ok {
		t.Fatal("annotation written next to the refused one lost on reopen")
	}
}

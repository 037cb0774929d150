package provenance

import (
	"strings"
	"testing"
	"time"

	"qurator/internal/mstore"
)

func persistOpts() mstore.Options {
	return mstore.Options{Fsync: mstore.FsyncNever, NoBackground: true}
}

func TestPersistRunsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	l := NewLog()
	if err := l.Persist(dir, persistOpts()); err != nil {
		t.Fatal(err)
	}
	if !l.Durable() {
		t.Fatal("Durable() = false after Persist")
	}
	started := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if _, err := l.Record(Record{
			View:      "wf-quality",
			Started:   started.Add(time.Duration(i) * time.Minute),
			InputSize: 10 + i,
			Outputs:   map[string]int{"accept": i},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CloseStore(); err != nil {
		t.Fatal(err)
	}

	l2 := NewLog()
	if err := l2.Persist(dir, persistOpts()); err != nil {
		t.Fatal(err)
	}
	defer l2.CloseStore()
	if l2.Len() != 3 {
		t.Fatalf("Len = %d after reopen, want 3", l2.Len())
	}
	rec, ok := l2.LastRun()
	if !ok || rec.View != "wf-quality" || rec.InputSize != 12 {
		t.Fatalf("LastRun = %+v, %v", rec, ok)
	}
	// The run counter resumes past the recovered runs: no IRI collisions.
	run, err := l2.Record(Record{View: "wf-quality", Started: started.Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(run.Value(), "run/4") {
		t.Fatalf("post-reopen run IRI = %s, want .../run/4", run)
	}
}

func TestPersistTwiceFails(t *testing.T) {
	dir := t.TempDir()
	l := NewLog()
	if err := l.Persist(dir, persistOpts()); err != nil {
		t.Fatal(err)
	}
	defer l.CloseStore()
	if err := l.Persist(dir, persistOpts()); err == nil {
		t.Fatal("second Persist must fail")
	}
}

func TestPersistFoldsExistingRuns(t *testing.T) {
	l := NewLog()
	l.Record(Record{View: "pre", Started: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)})
	dir := t.TempDir()
	if err := l.Persist(dir, persistOpts()); err != nil {
		t.Fatal(err)
	}
	l.CloseStore()

	l2 := NewLog()
	if err := l2.Persist(dir, persistOpts()); err != nil {
		t.Fatal(err)
	}
	defer l2.CloseStore()
	if l2.Len() != 1 {
		t.Fatalf("Len = %d, want the folded pre-Persist run", l2.Len())
	}
	if rec, ok := l2.LastRun(); !ok || rec.View != "pre" {
		t.Fatalf("LastRun = %+v, %v", rec, ok)
	}
}

// TestEmissionsSurviveRestart proves the exactly-once foundation: a
// window emission journaled before a crash answers Emission (and refuses
// re-recording) after recovery from disk.
func TestEmissionsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	l := NewLog()
	if err := l.Persist(dir, mstore.Options{Fsync: mstore.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RecordEmission("k1", "paper", "", `{"window":0}`); err != nil {
		t.Fatal(err)
	}
	// Set semantics: same key again is a no-op, not a duplicate.
	if _, err := l.RecordEmission("k1", "paper", "", `{"window":999}`); err != nil {
		t.Fatal(err)
	}
	if err := l.CloseStore(); err != nil {
		t.Fatal(err)
	}

	l2 := NewLog()
	if err := l2.Persist(dir, mstore.Options{Fsync: mstore.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	defer l2.CloseStore()
	payload, ok := l2.Emission("k1")
	if !ok {
		t.Fatal("emission k1 lost across restart")
	}
	if payload != `{"window":0}` {
		t.Fatalf("payload = %q, want the first recording (set semantics)", payload)
	}
	if n := l2.Emissions(); n != 1 {
		t.Fatalf("emissions = %d, want 1", n)
	}
}

package provenance

import (
	"testing"

	"qurator/internal/mstore"
)

// TestRecordSupersession pins the q:Supersedes provenance link between a
// late-data re-emission and the window emission it replaces.
func TestRecordSupersession(t *testing.T) {
	l := NewLog()
	if _, err := l.RecordEmission("old", "paper", "", `{"window":0}`); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Superseded("new"); ok {
		t.Fatal("Superseded true before any link recorded")
	}
	if _, err := l.RecordEmission("new", "paper", "old", `{"window":0,"late":true}`); err != nil {
		t.Fatal(err)
	}
	// Idempotent: replaying the same link (cluster replication, journal
	// replay) must not duplicate the triple.
	if _, err := l.RecordEmission("new", "paper", "old", `{"window":0,"late":true}`); err != nil {
		t.Fatal(err)
	}
	old, ok := l.Superseded("new")
	if !ok || old != "old" {
		t.Fatalf("Superseded(new) = %q, %v, want \"old\", true", old, ok)
	}
	if _, ok := l.Superseded("old"); ok {
		t.Error("the superseded emission must not itself report a predecessor")
	}
	if _, ok := l.Superseded("unknown"); ok {
		t.Error("Superseded true for a never-recorded key")
	}
}

// TestSupersessionSurvivesRestart proves the link is part of the durable
// metadata plane: a q:Supersedes triple journaled before a crash is
// queryable after recovery from disk.
func TestSupersessionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l := NewLog()
	if err := l.Persist(dir, mstore.Options{Fsync: mstore.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RecordEmission("old", "paper", "", `{"window":0}`); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RecordEmission("new", "paper", "old", `{"window":0,"late":true}`); err != nil {
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
	old, ok := l2.Superseded("new")
	if !ok || old != "old" {
		t.Fatalf("after restart Superseded(new) = %q, %v, want \"old\", true", old, ok)
	}
}

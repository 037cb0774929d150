package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qurator/internal/mstore"
	"qurator/internal/provenance"
	"qurator/internal/stream"
	"qurator/internal/telemetry"
)

func TestJournalAbsorbIsSetSemantic(t *testing.T) {
	j := NewJournal(nil)
	e := JournalEntry{Key: "k1", Result: stream.WindowResult{Seq: 0, Size: 4, View: "v"}}
	if err := j.Absorb(e); err != nil {
		t.Fatal(err)
	}
	if err := j.Absorb(e); err != nil {
		t.Fatalf("duplicate absorb must be a no-op, got %v", err)
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d after duplicate absorb; want 1", j.Len())
	}
	if _, ok := j.Lookup("k1"); !ok {
		t.Fatalf("absorbed entry not found")
	}
	if _, ok := j.Lookup("missing"); ok {
		t.Fatalf("phantom journal entry")
	}
}

func TestJournalSurvivesRestartThroughProvenance(t *testing.T) {
	dir := t.TempDir()
	log := provenance.NewLog()
	if err := log.Persist(filepath.Join(dir, "prov"), mstore.Options{}); err != nil {
		t.Fatal(err)
	}
	j := NewJournal(log)
	res := stream.WindowResult{Seq: 2, Size: 4, View: "paper",
		Decisions: []stream.Decision{{Item: hit(0).Value(), Window: 2, Outputs: []string{"accept:out"}}}}
	if err := j.Commit("key-abc", res); err != nil {
		t.Fatal(err)
	}
	if err := log.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// A new process over the same directory sees the emission.
	log2 := provenance.NewLog()
	if err := log2.Persist(filepath.Join(dir, "prov"), mstore.Options{}); err != nil {
		t.Fatal(err)
	}
	defer log2.CloseStore()
	j2 := NewJournal(log2)
	got, ok := j2.Lookup("key-abc")
	if !ok {
		t.Fatalf("journal entry lost across restart")
	}
	if got.View != "paper" || len(got.Decisions) != 1 || got.Decisions[0].Item != hit(0).Value() {
		t.Fatalf("recovered entry mangled: %+v", got)
	}
}

// TestCommitReplicatesAndPeerReplays is the failover story in miniature:
// a window committed on one node is replicated fleet-wide before its
// decisions escape, so when the SAME stream later arrives at a peer
// (because the committer died), the peer replays the journaled decisions
// instead of re-enacting — at-most-once enactment across the fleet.
func TestCommitReplicatesAndPeerReplays(t *testing.T) {
	n1 := startMember(t, "n1", nil, streamInner(nil))
	n2 := startMember(t, "n2", []string{n1.srv.URL}, streamInner(nil))
	waitFor(t, 3*time.Second, "fleet of 2", func() bool {
		return n1.node.Ring().Len() == 2 && n2.node.Ring().Len() == 2
	})

	lines := hitLines(8)
	c := &StreamClient{
		Nodes:  []string{n1.srv.URL},
		View:   "paper",
		Window: 4,
	}
	res1, err := c.Enact(context.Background(), lines)
	if err != nil {
		t.Fatalf("first stream: %v", err)
	}
	assertExactlyOnce(t, res1.Decisions, 8)
	if res1.Replayed != 0 {
		t.Fatalf("first run replayed %d windows; nothing was journaled yet", res1.Replayed)
	}

	// Both nodes hold both windows now — the enacting owner committed
	// locally and replicated to its peer before emitting.
	waitFor(t, 2*time.Second, "journal replication", func() bool {
		return n1.node.Journal().Len() == 2 && n2.node.Journal().Len() == 2
	})

	// The same stream again, entering through the OTHER node: every
	// window must answer from the journal, with identical decisions.
	c2 := &StreamClient{
		Nodes:  []string{n2.srv.URL},
		View:   "paper",
		Window: 4,
	}
	res2, err := c2.Enact(context.Background(), lines)
	if err != nil {
		t.Fatalf("second stream: %v", err)
	}
	assertExactlyOnce(t, res2.Decisions, 8)
	if res2.Replayed != res2.Windows || res2.Windows != 2 {
		t.Fatalf("second run replayed %d of %d windows; want all 2", res2.Replayed, res2.Windows)
	}
	for i := range res1.Decisions {
		if res1.Decisions[i].Item != res2.Decisions[i].Item ||
			len(res1.Decisions[i].Outputs) != len(res2.Decisions[i].Outputs) {
			t.Fatalf("replayed decision %d differs:\n  first:  %+v\n  second: %+v",
				i, res1.Decisions[i], res2.Decisions[i])
		}
	}
	// Replaying enacted nothing, so no new journal entries appeared.
	if n1.node.Journal().Len() != 2 || n2.node.Journal().Len() != 2 {
		t.Fatalf("replay grew the journal: n1=%d n2=%d; want 2 each",
			n1.node.Journal().Len(), n2.node.Journal().Len())
	}
}

// TestLateCommitIsOneWALBatch: a late re-emission and its q:Supersedes
// link reach the WAL as one batch. Two batches could keep the emission
// without its link (a crash between them, or a failed second write), and
// a replay of the window then hits the journal and never commits again.
func TestLateCommitIsOneWALBatch(t *testing.T) {
	const store = "late-commit-batch"
	log := provenance.NewLog()
	if err := log.Persist(t.TempDir(), mstore.Options{Name: store, Fsync: mstore.FsyncNever, NoBackground: true}); err != nil {
		t.Fatal(err)
	}
	defer log.CloseStore()
	batches := telemetry.Default.CounterVec("qurator_mstore_wal_batches_total", "", "store").With(store)
	j := NewJournal(log)
	if err := j.Commit("old", stream.WindowResult{Size: 4, View: "paper"}); err != nil {
		t.Fatal(err)
	}
	late := stream.WindowResult{Size: 4, View: "paper", Late: true, Supersedes: "old"}
	before := batches.Value()
	if err := j.Commit("new", late); err != nil {
		t.Fatal(err)
	}
	if got := batches.Value() - before; got != 1 {
		t.Fatalf("late commit wrote %d WAL batches, want 1", got)
	}
	if old, ok := log.Superseded("new"); !ok || old != "old" {
		t.Fatalf("Superseded(new) = %q, %v, want \"old\", true", old, ok)
	}
	// Set semantics: committing the same entry again writes nothing.
	if err := j.Commit("new", late); err != nil {
		t.Fatal(err)
	}
	if got := batches.Value() - before; got != 1 {
		t.Fatalf("re-commit wrote a WAL batch (%d in all, want 1)", got)
	}
	if j.Len() != 2 {
		t.Fatalf("Len = %d, want 2", j.Len())
	}
}

// TestJournalConcurrentCommitAndAbsorb: goroutines committing, absorbing
// and looking up the same keys at once journal each key exactly once, and
// count it once in qurator_cluster_journal_entries_total.
func TestJournalConcurrentCommitAndAbsorb(t *testing.T) {
	const keys = 50
	j := NewJournal(nil)
	entries := func() uint64 {
		return clusterJournalEntries.With(j.nodeID(), "local").Value() +
			clusterJournalEntries.With(j.nodeID(), "peer").Value()
	}
	before := entries()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("k%d", i)
				res := stream.WindowResult{Seq: i, Size: 1, View: "v"}
				var err error
				if w%2 == 0 {
					err = j.Commit(key, res)
				} else {
					err = j.Absorb(JournalEntry{Key: key, Result: res})
				}
				if err != nil {
					t.Error(err)
					return
				}
				if got, ok := j.Lookup(key); !ok || got.Seq != i {
					t.Errorf("Lookup(%s) = %+v, %v", key, got, ok)
					return
				}
				j.Len()
			}
		}(w)
	}
	wg.Wait()
	if j.Len() != keys {
		t.Fatalf("Len = %d, want %d", j.Len(), keys)
	}
	if got := entries() - before; got != keys {
		t.Fatalf("journal entries counter rose by %d, want %d", got, keys)
	}
}

// TestCommitRefusesEntryOverPeerLimit: an entry no peer would accept
// fails Commit with an error naming the limit, before anything is
// journaled, while an entry under the limit replicates as before.
func TestCommitRefusesEntryOverPeerLimit(t *testing.T) {
	n1 := startMember(t, "n1", nil, nil)
	n2 := startMember(t, "n2", []string{n1.srv.URL}, nil)
	waitFor(t, 3*time.Second, "fleet of 2", func() bool {
		return n1.node.Ring().Len() == 2 && n2.node.Ring().Len() == 2
	})
	huge := stream.WindowResult{View: strings.Repeat("v", maxJournalBody)}
	err := n1.node.Journal().Commit("0b", huge)
	if err == nil || !strings.Contains(err.Error(), "64 MiB a peer accepts") {
		t.Fatalf("Commit over the peer limit: %v, want an error naming the limit", err)
	}
	if err := n1.node.Journal().Commit("0c", stream.WindowResult{View: "v"}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*testMember{n1, n2} {
		if got := m.node.Journal().Len(); got != 1 {
			t.Errorf("%s journals %d entries, want only the one under the limit", m.node.self.ID, got)
		}
	}
}

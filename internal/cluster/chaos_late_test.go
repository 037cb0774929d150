package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"qurator/internal/ontology"
	"qurator/internal/provenance"
	"qurator/internal/rdf"
	"qurator/internal/stream"
)

// lateWire is the union of the decision and summary NDJSON lines a raw
// /stream/enact response interleaves.
type lateWire struct {
	Item       string `json:"item"`
	Decided    *int   `json:"decided"`
	Late       bool   `json:"late"`
	Supersedes string `json:"supersedes"`
	Replayed   bool   `json:"replayed"`
	Error      string `json:"error"`
}

func enactRaw(t *testing.T, url, body string) (decisions []lateWire, summaries []lateWire) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var l lateWire
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Error != "" {
			t.Fatalf("stream error record: %s", l.Error)
		}
		if l.Decided != nil {
			summaries = append(summaries, l)
		} else {
			decisions = append(decisions, l)
		}
	}
	return decisions, summaries
}

// TestLateReEmissionSupersedesAcrossNodeDeath extends the chaos suite to
// the late-data path: an evicted item re-arrives after its window's
// emission, producing a superseding re-emission whose q:Supersedes link
// must (a) land in the provenance-backed journal, (b) replicate to the
// peers, and (c) replay exactly-once — same key, no new journal entries —
// when the whole stream is re-sent to a survivor after the owner is
// killed.
func TestLateReEmissionSupersedesAcrossNodeDeath(t *testing.T) {
	logs := map[string]*provenance.Log{}
	inner := func(n *Node, mux *http.ServeMux) {
		l := provenance.NewLog() // durable-plane stand-in: graph-backed, no disk
		logs[n.Self().ID] = l
		n.AttachJournal(NewJournal(l))
		h := stream.Handler(paperCompiler(nil), stream.WithJournal(n.Journal()))
		mux.Handle("/stream/enact", n.EnactHandler(h))
	}
	n1 := startMember(t, "n1", nil, inner)
	n2 := startMember(t, "n2", []string{n1.srv.URL}, inner)
	n3 := startMember(t, "n3", []string{n1.srv.URL}, inner)
	fleet := map[string]*testMember{"n1": n1, "n2": n2, "n3": n3}
	waitFor(t, 5*time.Second, "fleet of 3", func() bool {
		return n1.node.Ring().Len() == 3 && n2.node.Ring().Len() == 3 && n3.node.Ring().Len() == 3
	})
	ownerID := n1.node.Ring().Owner("paper")
	owner := fleet[ownerID]
	t.Logf("late-chaos: %s owns the stream", ownerID)

	// Items 0..3 in 2-item tumbling windows, then item 0 re-arrives after
	// its window fired and evicted it: the windower must route it to the
	// retained window as a superseding late re-emission. (StreamClient's
	// per-item accounting assumes no re-decisions, so this drives the
	// endpoint raw.)
	var body strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&body, "{\"item\":%q}\n", hit(i).Value())
	}
	fmt.Fprintf(&body, "{\"item\":%q}\n", hit(0).Value())
	enactURL := func(m *testMember) string { return m.srv.URL + "/stream/enact?view=paper&window=2" }

	decisions, summaries := enactRaw(t, enactURL(n1), body.String())
	if len(summaries) != 3 {
		t.Fatalf("got %d window summaries, want 3 (two windows + one late re-emission)", len(summaries))
	}
	re := summaries[2]
	if !re.Late || re.Supersedes == "" {
		t.Fatalf("third summary = %+v, want a late re-emission carrying its q:Supersedes key", re)
	}
	if len(decisions) != 6 {
		t.Fatalf("got %d decisions, want 6 (4 originals + 2 revised)", len(decisions))
	}

	// The supersession link must be queryable on the owner's provenance
	// log AND on every peer the journal replicated to.
	findLink := func(l *provenance.Log) (string, string) {
		var newKey string
		l.Snapshot().ForEachMatch(rdf.Term{}, ontology.Q("Supersedes"), rdf.Term{}, func(tr rdf.Triple) bool {
			newKey = strings.TrimPrefix(tr.Subject.Value(), ontology.QuratorNS+"emission/")
			return false
		})
		old, _ := l.Superseded(newKey)
		return newKey, old
	}
	var newKey string
	for id, l := range logs {
		nk, old := findLink(l)
		if nk == "" || old != re.Supersedes {
			t.Fatalf("%s provenance lacks the q:Supersedes link (new %q, old %q, want old %q)",
				id, nk, old, re.Supersedes)
		}
		if newKey == "" {
			newKey = nk
		} else if nk != newKey {
			t.Fatalf("%s replicated a different re-emission key: %q vs %q", id, nk, newKey)
		}
	}
	if owner.node.Journal().Len() != 3 {
		t.Fatalf("owner journal holds %d entries, want 3", owner.node.Journal().Len())
	}

	// Kill the owner outright and let the survivors converge.
	owner.node.Stop()
	owner.srv.Close()
	t.Logf("late-chaos: %s killed", ownerID)
	var survivors []*testMember
	for id, m := range fleet {
		if id != ownerID {
			survivors = append(survivors, m)
		}
	}
	for _, m := range survivors {
		m := m
		waitFor(t, 5*time.Second, m.node.Self().ID+" shrinking to 2-node ring", func() bool {
			return m.node.Ring().Len() == 2 && m.node.Ring().Owner("paper") != ownerID
		})
	}

	// Replay the whole stream — late re-arrival included — at a survivor.
	// Every window, the superseding re-emission included, must answer from
	// the replicated journal: identical decisions, replayed summaries, no
	// journal growth.
	before := []int{survivors[0].node.Journal().Len(), survivors[1].node.Journal().Len()}
	dec2, sum2 := enactRaw(t, enactURL(survivors[0]), body.String())
	if len(sum2) != 3 {
		t.Fatalf("replay produced %d summaries, want 3", len(sum2))
	}
	for i, s := range sum2 {
		if !s.Replayed {
			t.Fatalf("replay summary %d = %+v, want it answered from the journal", i, s)
		}
	}
	if sum2[2].Supersedes != re.Supersedes {
		t.Fatalf("replayed re-emission supersedes %q, want %q", sum2[2].Supersedes, re.Supersedes)
	}
	if len(dec2) != len(decisions) {
		t.Fatalf("replay delivered %d decisions, want %d", len(dec2), len(decisions))
	}
	for i := range dec2 {
		if dec2[i].Item != decisions[i].Item {
			t.Fatalf("replay decision %d diverged: %q vs %q", i, dec2[i].Item, decisions[i].Item)
		}
	}
	if got := []int{survivors[0].node.Journal().Len(), survivors[1].node.Journal().Len()}; got[0] != before[0] || got[1] != before[1] {
		t.Fatalf("replay grew the survivors' journals: %v -> %v", before, got)
	}
}

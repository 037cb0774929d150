package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"qurator/internal/provenance"
	"qurator/internal/stream"
)

// JournalEntry is one replicated window emission on the wire.
type JournalEntry struct {
	Key    string              `json:"key"`
	Result stream.WindowResult `json:"result"`
}

// Journal is the fleet's emission record: it implements
// stream.WindowJournal so the streaming enactor consults it before
// enacting and commits into it before emitting. Its only store is a
// provenance log: each entry is a q:WindowEmission resource there, so
// entries survive restarts via the metadata WAL when the log is durable.
// Entries are replicated to live peers on commit, so a window decided on
// a node that dies a millisecond later is still recognised — and its
// original decisions replayed — when the client resumes on the new
// owner. That commit-replicate-then-emit ordering is the at-most-once
// half of the fleet's exactly-once argument (the replaying client is the
// at-least-once half).
type Journal struct {
	node *Node           // set by AttachJournal; nil when standalone
	log  *provenance.Log // the journal's only store
}

// NewJournal builds a journal over the given provenance log. A nil log
// gets a fresh in-memory one — fine for tests, not for failover across
// process restarts.
func NewJournal(log *provenance.Log) *Journal {
	if log == nil {
		log = provenance.NewLog()
	}
	return &Journal{log: log}
}

func (j *Journal) nodeID() string {
	if j.node != nil {
		return j.node.self.ID
	}
	return "standalone"
}

// Len returns the number of journaled emissions.
func (j *Journal) Len() int { return j.log.Emissions() }

// Lookup implements stream.WindowJournal: the journaled result for key,
// whether committed locally, absorbed from a peer, or recovered from the
// provenance WAL after a restart.
func (j *Journal) Lookup(key string) (stream.WindowResult, bool) {
	payload, ok := j.log.Emission(key)
	if !ok {
		return stream.WindowResult{}, false
	}
	var res stream.WindowResult
	if err := json.Unmarshal([]byte(payload), &res); err != nil {
		return stream.WindowResult{}, false
	}
	clusterReplays.With(j.nodeID()).Inc()
	return res, true
}

// Commit implements stream.WindowJournal: record the emission durably,
// then replicate it to every live peer. The local write failing is fatal
// to the window (the enactor refuses to emit an unjournaled window); a
// replication failure is fatal only when NO live peer accepted the entry
// while peers exist — with zero replicas, this node's death would lose
// the at-most-once guarantee for a window whose decisions already
// escaped. An entry larger than a peer's journal body limit fails before
// anything is recorded, since no peer would accept it.
func (j *Journal) Commit(key string, res stream.WindowResult) error {
	var live []Member
	if j.node != nil {
		for _, p := range j.node.Peers() {
			if p.Status == Alive {
				live = append(live, p)
			}
		}
	}
	var body []byte
	if len(live) > 0 {
		var err error
		if body, err = json.Marshal(JournalEntry{Key: key, Result: res}); err != nil {
			return fmt.Errorf("cluster: journal entry %s: %w", key, err)
		}
		if len(body) > maxJournalBody {
			return fmt.Errorf("cluster: journal entry %s is %d bytes, above the %d MiB a peer accepts; use a smaller window",
				key, len(body), maxJournalBody>>20)
		}
	}
	if err := j.record(key, res, "local"); err != nil {
		return err
	}
	if len(live) == 0 {
		return nil
	}
	var (
		wg sync.WaitGroup
		ok int32
		mu sync.Mutex
	)
	for _, p := range live {
		wg.Add(1)
		go func(p Member) {
			defer wg.Done()
			if j.replicate(p, body) == nil {
				mu.Lock()
				ok++
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if ok == 0 {
		return fmt.Errorf("cluster: journal entry %s replicated to 0 of %d live peer(s)", key, len(live))
	}
	return nil
}

func (j *Journal) replicate(p Member, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		p.Info.Addr+"/cluster/journal", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := j.node.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: replicate to %s: %s", p.Info.ID, resp.Status)
	}
	return nil
}

// Absorb stores an entry replicated from a peer. Set-semantic: absorbing
// the same key twice (two peers racing, or a retried replication) is a
// no-op, so replication can be freely retried.
func (j *Journal) Absorb(e JournalEntry) error {
	return j.record(e.Key, e.Result, "peer")
}

// record writes one entry through to the provenance log. A late
// re-emission revises an earlier window's decisions: the log links the
// two with q:Supersedes in the same batch, so the provenance graph keeps
// the full decision lineage across failovers.
func (j *Journal) record(key string, res stream.WindowResult, origin string) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("cluster: journal entry %s: %w", key, err)
	}
	added, err := j.log.RecordEmission(key, res.View, res.Supersedes, string(payload))
	if err != nil {
		return fmt.Errorf("cluster: journal entry %s: %w", key, err)
	}
	if added {
		clusterJournalEntries.With(j.nodeID(), origin).Inc()
	}
	return nil
}

package cluster

import (
	"encoding/json"
	"net/http"
	"strings"

	"qurator/internal/telemetry"
)

// heartbeatAddrHeader carries the prober's advertised address on a
// heartbeat, so being probed is itself a way to learn a peer — the
// membership graph converges from any connected seeding.
const heartbeatAddrHeader = "X-Qurator-Node-Addr"

// forwardedHeader marks a request already routed once by a fleet node.
// A forwarded request is always served where it lands: if two nodes'
// rings disagree mid-rebalance, the second hop wins rather than looping.
const forwardedHeader = "X-Qurator-Forwarded"

// Body limits of the /cluster POSTs: a journal entry carries a whole
// window's decisions and gets the repository upload limit (Commit refuses
// to replicate a larger one); join and leave carry one NodeInfo.
const (
	maxJournalBody = 64 << 20
	maxMemberBody  = 1 << 20
)

// isWindowKey reports whether s is in the alphabet of the journal's
// content-addressed keys (hex digests, see stream's windowKey). A key
// becomes part of an IRI in the provenance graph, so a peer must not be
// able to write one that the durable store could not read back.
func isWindowKey(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return s != ""
}

// Status is the GET /cluster response: one node's view of the fleet.
type Status struct {
	Self        NodeInfo `json:"self"`
	State       string   `json:"state"`
	RingVersion uint64   `json:"ringVersion"`
	RingMembers []string `json:"ringMembers"`
	Members     []Member `json:"members"`
	Journal     int      `json:"journalEntries"`
	// Owner resolves the ?key= query parameter, when one was given.
	Owner *OwnerInfo `json:"owner,omitempty"`
}

// OwnerInfo is the ring resolution of one partition key.
type OwnerInfo struct {
	Key  string `json:"key"`
	Node string `json:"node"`
	Addr string `json:"addr"`
	Self bool   `json:"self"`
}

// Handler serves the fleet-coordination endpoints under /cluster:
//
//	GET  /cluster                 status: members, ring, journal depth
//	GET  /cluster?key=K           ...plus which member owns partition K
//	GET  /cluster/heartbeat?from= liveness probe; piggybacks member list
//	POST /cluster/join            NodeInfo body → member list
//	POST /cluster/leave           NodeInfo body → removed from ring
//	POST /cluster/journal         JournalEntry body → absorbed
func (n *Node) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch strings.TrimSuffix(r.URL.Path, "/") {
		case "/cluster":
			n.handleStatus(w, r)
		case "/cluster/heartbeat":
			n.handleHeartbeat(w, r)
		case "/cluster/join":
			n.handleJoin(w, r)
		case "/cluster/leave":
			n.handleLeave(w, r)
		case "/cluster/journal":
			n.handleJournal(w, r)
		default:
			http.NotFound(w, r)
		}
	})
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "cluster: GET only", http.StatusMethodNotAllowed)
		return
	}
	n.mu.Lock()
	version := n.ringVersion
	ringMembers := n.ring.Members()
	n.mu.Unlock()
	st := Status{
		Self:        n.self,
		State:       n.State().String(),
		RingVersion: version,
		RingMembers: ringMembers,
		Members:     n.Peers(),
		Journal:     n.journal.Len(),
	}
	if key := r.URL.Query().Get("key"); key != "" {
		if owner, ok := n.Owner(key); ok {
			st.Owner = &OwnerInfo{Key: key, Node: owner.ID, Addr: owner.Addr, Self: owner.ID == n.self.ID}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// handleHeartbeat answers liveness probes. Draining nodes answer 503 so
// peers mark them down and the ring sheds them without waiting for the
// process to exit. The 200 body is this node's member list — the
// anti-entropy piggyback that spreads membership fleet-wide.
func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if n.State() == StateDraining {
		http.Error(w, "cluster: draining", http.StatusServiceUnavailable)
		return
	}
	// Probes carry the sender's long-lived heartbeat trace; ack under it
	// only when a traceparent actually arrived — an un-traced probe must
	// not mint a fresh trace per heartbeat.
	if ctx, traced := telemetry.Extract(r.Context(), r.Header); traced {
		_, span := telemetry.StartSpan(ctx, "cluster:heartbeat-ack")
		span.SetAttr("node", n.self.ID)
		defer span.End()
	}
	// Being probed teaches us the prober.
	if from := r.URL.Query().Get("from"); from != "" {
		if addr := r.Header.Get(heartbeatAddrHeader); addr != "" {
			n.learn(NodeInfo{ID: from, Addr: addr})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(n.memberList())
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "cluster: POST a NodeInfo", http.StatusMethodNotAllowed)
		return
	}
	var info NodeInfo
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMemberBody)).Decode(&info); err != nil || info.ID == "" || info.Addr == "" {
		http.Error(w, "cluster: join body must be {\"id\":..., \"addr\":...}", http.StatusBadRequest)
		return
	}
	if info.ID == n.self.ID && info.Addr != n.self.Addr {
		// Two distinct processes claiming one identity would split the
		// ring's ownership map; refuse the latecomer loudly.
		http.Error(w, "cluster: node ID "+info.ID+" is already taken", http.StatusConflict)
		return
	}
	n.learn(info)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(n.memberList())
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "cluster: POST a NodeInfo", http.StatusMethodNotAllowed)
		return
	}
	var info NodeInfo
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMemberBody)).Decode(&info); err != nil || info.ID == "" {
		http.Error(w, "cluster: leave body must be {\"id\":...}", http.StatusBadRequest)
		return
	}
	n.forget(info.ID, "graceful leave")
	w.WriteHeader(http.StatusOK)
}

func (n *Node) handleJournal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "cluster: POST a JournalEntry", http.StatusMethodNotAllowed)
		return
	}
	var e JournalEntry
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJournalBody)).Decode(&e); err != nil {
		http.Error(w, "cluster: bad journal entry: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !isWindowKey(e.Key) || (e.Result.Supersedes != "" && !isWindowKey(e.Result.Supersedes)) {
		http.Error(w, "cluster: journal key and supersedes must be lower-case hex", http.StatusBadRequest)
		return
	}
	if err := n.journal.Absorb(e); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// memberList is the fleet as this node will vouch for it: itself plus
// every peer it currently sees as Alive. Suspect peers are deliberately
// NOT vouched for — if they were, two survivors of a node death would
// keep resurrecting the corpse in each other's member tables (one
// removes it at DeadAfter strikes while the other, still at suspect,
// re-teaches it via the piggyback), and the ring would never shed the
// dead node.
func (n *Node) memberList() []NodeInfo {
	out := []NodeInfo{n.self}
	for _, p := range n.Peers() {
		if p.Status == Alive {
			out = append(out, p.Info)
		}
	}
	return out
}

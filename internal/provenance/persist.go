package provenance

import (
	"strconv"
	"strings"

	"qurator/internal/mstore"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

// Persist opens (or creates) a durable backend in dir: recorded runs
// survive process restarts, and the run numbering resumes after the
// highest recovered run so IRIs never collide across restarts.
func (l *Log) Persist(dir string, opts mstore.Options) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store != nil {
		return errAlreadyPersistent
	}
	if opts.Name == "" {
		opts.Name = "provenance"
	}
	st, err := mstore.Open(dir, opts)
	if err != nil {
		return err
	}
	if l.graph.Len() > 0 {
		if _, err := st.AddBatch(l.graph.Triples()); err != nil {
			st.Close()
			return err
		}
	}
	l.store = st
	l.graph = st.Graph()
	if seq := maxRunSeq(l.graph); seq > l.seq {
		l.seq = seq
	}
	return nil
}

var errAlreadyPersistent = &alreadyPersistentError{}

type alreadyPersistentError struct{}

func (*alreadyPersistentError) Error() string {
	return "provenance: log is already persistent"
}

// maxRunSeq recovers the run counter from the graph: run IRIs are
// sequential (<ns>run/N), so the counter is the highest recorded N.
func maxRunSeq(g *rdf.Graph) int {
	prefix := ontology.QuratorNS + "run/"
	max := 0
	for _, t := range g.Match(rdf.Term{}, rdf.IRI(rdf.RDFType), runClass) {
		n, err := strconv.Atoi(strings.TrimPrefix(t.Subject.Value(), prefix))
		if err == nil && n > max {
			max = n
		}
	}
	return max
}

// Durable reports whether a backend is attached.
func (l *Log) Durable() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.store != nil
}

// Flush checkpoints the durable backend (no-op without one).
func (l *Log) Flush() error {
	l.mu.Lock()
	st := l.store
	l.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Flush()
}

// CloseStore flushes and detaches the durable backend; the log keeps its
// in-memory contents and keeps working non-durably.
func (l *Log) CloseStore() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store == nil {
		return nil
	}
	err := l.store.Close()
	l.store = nil
	return err
}

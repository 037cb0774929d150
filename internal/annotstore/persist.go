package annotstore

import (
	"fmt"
	"time"

	"qurator/internal/mstore"
)

// This file attaches the durable metadata plane (internal/mstore) to a
// repository: once Persist is called, every mutation — Put, Clear,
// ExpireBefore — is committed to a write-ahead log before it becomes
// visible, and Open-time recovery rebuilds the annotation graph exactly
// as it stood at the last committed batch. Read paths are untouched: the
// repository's graph pointer aliases the store's copy-on-write graph, so
// Get/Query/Snapshot stay lock-free.

// Persist opens (or creates) a durable backend in dir and routes all
// subsequent mutations through it. Annotations recovered from dir become
// visible immediately; annotations already in memory are folded into the
// store. Calling Persist twice is an error.
func (r *Repository) Persist(dir string, opts mstore.Options) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store != nil {
		return fmt.Errorf("annotstore: repository %q is already persistent", r.name)
	}
	if opts.Name == "" {
		opts.Name = "annot-" + r.name
	}
	st, err := mstore.Open(dir, opts)
	if err != nil {
		return err
	}
	if r.graph.Len() > 0 {
		// Pre-Persist writes happened in memory only; make them durable.
		if _, err := st.AddBatch(r.graph.Triples()); err != nil {
			st.Close()
			return err
		}
	}
	r.store = st
	r.graph = st.Graph()
	return nil
}

// Flush checkpoints the durable backend (no-op without one).
func (r *Repository) Flush() error {
	r.mu.RLock()
	st := r.store
	r.mu.RUnlock()
	if st == nil {
		return nil
	}
	return st.Flush()
}

// CloseStore flushes and detaches the durable backend. The repository
// keeps its in-memory contents and keeps working non-durably.
func (r *Repository) CloseStore() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		return nil
	}
	err := r.store.Close()
	r.store = nil
	return err
}

// SetObserver registers a callback invoked for every successful Put with
// the annotation and its write timestamp — the quality cube's feed. The
// callback runs under the repository's write lock and must not call back
// into the repository. Passing nil removes the observer.
func (r *Repository) SetObserver(fn func(Annotation, time.Time)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observer = fn
}

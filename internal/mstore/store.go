package mstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qurator/internal/rdf"
)

// FsyncPolicy selects when the WAL reaches stable storage.
type FsyncPolicy int

const (
	// FsyncInterval (the default) syncs on a background tick: bounded
	// data loss (one interval) at near-zero per-batch cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every committed batch: no committed batch
	// is ever lost, at one fsync per write.
	FsyncAlways
	// FsyncNever leaves syncing to the OS page cache: fastest, loses
	// up to the OS writeback window on power failure (a clean process
	// crash loses nothing — the file data survives the process).
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("mstore: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Options tunes a Store. The zero value is usable.
type Options struct {
	// Name labels this store's telemetry series; defaults to the
	// directory's base name.
	Name string
	// Fsync is the WAL durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the tick for FsyncInterval (default 100ms).
	FsyncInterval time.Duration
	// FlushBytes flushes the memtable to a segment once the active WAL
	// exceeds this size (default 4MiB).
	FlushBytes int64
	// CompactSegments triggers a background compaction when the live
	// segment count reaches this (default 4).
	CompactSegments int
	// NoBackground disables the fsync ticker and the compaction
	// goroutine; tests drive Flush/Compact explicitly.
	NoBackground bool
}

func (o Options) withDefaults(dir string) Options {
	if o.Name == "" {
		o.Name = filepath.Base(dir)
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = 4 << 20
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = 4
	}
	return o
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = fmt.Errorf("mstore: store is closed")

// Store is a durable RDF triple store: every mutation is a WAL-committed
// batch applied to an in-memory copy-on-write graph, periodically
// checkpointed into immutable sorted segments. One process may own a
// directory at a time. All methods are safe for concurrent use; reads go
// through Graph()/Snapshot() and never block on store mutations.
type Store struct {
	dir  string
	opts Options
	met  storeMetrics

	mu           sync.Mutex
	g            *rdf.Graph
	mem          map[rdf.Triple]bool // net ops since last flush: true=add, false=delete
	clearPending bool                // a Clear happened since last flush → next segment is a base
	segs         []segmentMeta       // ascending seq
	wal          *wal
	oldWALs      []string // replayed-at-open WALs, deleted by the next flush
	batchSeq     uint64
	closed       bool

	compactMu sync.Mutex
	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup

	stats struct {
		recovered    int
		recoveryTime time.Duration
		tornWALs     int
	}
}

// Open opens (creating if needed) the store in dir and rebuilds the
// in-memory graph from its segments and WAL. Ops recovered from the WAL
// are immediately checkpointed into a segment, so repeated crash/reopen
// cycles never re-parse the same tail twice.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mstore: %w", err)
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		met:       metricsFor(opts.Name),
		g:         rdf.NewGraph(),
		mem:       make(map[rdf.Triple]bool),
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	start := time.Now()
	maxSeq, err := s.recover()
	if err != nil {
		return nil, err
	}
	s.stats.recoveryTime = time.Since(start)
	s.met.recovery.Set(s.stats.recoveryTime.Seconds())
	s.met.recovered.Set(float64(s.stats.recovered))

	if s.wal, err = createWAL(dir, maxSeq+1); err != nil {
		return nil, err
	}
	if len(s.mem) > 0 || s.clearPending || len(s.oldWALs) > 0 {
		if err := s.flushLocked(); err != nil {
			s.wal.close()
			return nil, err
		}
	}
	s.publishGauges()

	if !opts.NoBackground {
		s.wg.Add(1)
		go s.compactLoop()
		if opts.Fsync == FsyncInterval {
			s.wg.Add(1)
			go s.fsyncLoop()
		}
	}
	return s, nil
}

// recover scans dir and applies segments and committed WAL batches in
// ascending sequence order (segment before WAL at equal seq — replay
// over an already-flushed segment is idempotent). Returns the highest
// sequence seen.
func (s *Store) recover() (uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("mstore: %w", err)
	}
	type file struct {
		seq   uint64
		isSeg bool
		path  string
	}
	var files []file
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(s.dir, name)) // in-flight write at crash time
			continue
		}
		var isSeg bool
		switch {
		case strings.HasSuffix(name, ".seg"):
			isSeg = true
		case strings.HasSuffix(name, ".wal"):
		default:
			continue
		}
		seq, err := strconv.ParseUint(name[:len(name)-4], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("mstore: unrecognised file %s in %s", name, s.dir)
		}
		files = append(files, file{seq: seq, isSeg: isSeg, path: filepath.Join(s.dir, name)})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].seq != files[j].seq {
			return files[i].seq < files[j].seq
		}
		return files[i].isSeg && !files[j].isSeg
	})

	var maxSeq uint64
	for _, f := range files {
		maxSeq = f.seq
		if f.isSeg {
			base, dels, adds, err := readSegment(f.path)
			if err != nil {
				return 0, err
			}
			if base {
				s.g.Clear()
				// Older segments are superseded; drop them from the
				// live set (their files die at the next compaction's
				// input-prefix check or were already gone).
				for _, m := range s.segs {
					os.Remove(m.path)
				}
				s.segs = s.segs[:0]
			}
			for _, t := range dels {
				s.g.Remove(t)
			}
			if _, err := s.g.AddBatch(adds); err != nil {
				return 0, fmt.Errorf("mstore: segment %s: %w", f.path, err)
			}
			info, _ := os.Stat(f.path)
			var bytes int64
			if info != nil {
				bytes = info.Size()
			}
			s.segs = append(s.segs, segmentMeta{
				seq: f.seq, path: f.path, base: base,
				dels: len(dels), adds: len(adds), bytes: bytes,
			})
			continue
		}
		data, err := os.ReadFile(f.path)
		if err != nil {
			return 0, fmt.Errorf("mstore: %w", err)
		}
		applied, torn, err := replayWAL(data, s.applyRecoveredBatch)
		if err != nil {
			return 0, fmt.Errorf("mstore: wal %s: %w", f.path, err)
		}
		if torn {
			s.stats.tornWALs++
		}
		s.stats.recovered += applied
		s.oldWALs = append(s.oldWALs, f.path)
	}
	return maxSeq, nil
}

// applyRecoveredBatch applies one committed batch during recovery,
// mirroring the live write path: graph and memtable stay in lockstep.
func (s *Store) applyRecoveredBatch(ops []walOp) {
	for _, op := range ops {
		switch op.op {
		case opClear:
			s.g.Clear()
			s.mem = make(map[rdf.Triple]bool)
			s.clearPending = true
		case opDel:
			s.g.Remove(op.triple)
			s.mem[op.triple] = false
		case opAdd:
			// Recovered triples were validated on the original write
			// path; Add re-validates and skips malformed ones.
			if _, err := s.g.Add(op.triple); err == nil {
				s.mem[op.triple] = true
			}
		}
	}
}

// Graph returns the live in-memory graph — the lock-free COW read path.
// Callers read it directly (Match, ForEachMatch, Snapshot); all writes
// must go through the Store so they reach the WAL.
func (s *Store) Graph() *rdf.Graph { return s.g }

// Snapshot returns an immutable O(1) view of the current graph.
func (s *Store) Snapshot() *rdf.Snapshot { return s.g.Snapshot() }

// Len returns the number of triples.
func (s *Store) Len() int { return s.g.Len() }

// Apply durably commits one batch: dels are applied first, then adds
// (so a triple in both ends up present). The batch is in the WAL —
// synced per the fsync policy — before the in-memory graph mutates.
func (s *Store) Apply(adds, dels []rdf.Triple) error {
	_, err := s.apply(adds, dels)
	return err
}

// AddBatch durably inserts triples, returning how many were not already
// present.
func (s *Store) AddBatch(ts []rdf.Triple) (int, error) {
	return s.apply(ts, nil)
}

// Remove durably deletes a triple, reporting whether it was present.
func (s *Store) Remove(t rdf.Triple) (bool, error) {
	present := s.g.Has(t)
	if !present {
		return false, nil
	}
	_, err := s.apply(nil, []rdf.Triple{t})
	return present, err
}

func (s *Store) apply(adds, dels []rdf.Triple) (int, error) {
	if len(adds)+len(dels) == 0 {
		return 0, nil
	}
	for _, t := range adds {
		if err := t.Validate(); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.batchSeq++
	start := time.Now()
	if err := s.wal.appendBatch(false, dels, adds, s.batchSeq); err != nil {
		return 0, err
	}
	s.met.walAppend.Observe(time.Since(start).Seconds())
	s.met.batches.Inc()
	if s.opts.Fsync == FsyncAlways {
		fs := time.Now()
		if err := s.wal.sync(); err != nil {
			return 0, err
		}
		s.met.fsync.Observe(time.Since(fs).Seconds())
	}
	for _, t := range dels {
		s.g.Remove(t)
		s.mem[t] = false
	}
	added, err := s.g.AddBatch(adds)
	if err != nil {
		// Unreachable after the validation above; surface it anyway.
		return added, err
	}
	for _, t := range adds {
		s.mem[t] = true
	}
	s.met.walBytes.Set(float64(s.wal.bytes))
	if s.wal.bytes >= s.opts.FlushBytes {
		if err := s.flushLocked(); err != nil {
			return added, err
		}
	}
	return added, nil
}

// Clear durably removes every triple. The clear is one WAL record; the
// next flush writes a base segment, superseding all older files.
func (s *Store) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.batchSeq++
	if err := s.wal.appendBatch(true, nil, nil, s.batchSeq); err != nil {
		return err
	}
	s.met.batches.Inc()
	if s.opts.Fsync == FsyncAlways {
		if err := s.wal.sync(); err != nil {
			return err
		}
	}
	s.g.Clear()
	s.mem = make(map[rdf.Triple]bool)
	s.clearPending = true
	s.met.walBytes.Set(float64(s.wal.bytes))
	return nil
}

// Flush checkpoints the memtable into a segment and starts a fresh WAL.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if len(s.mem) == 0 && !s.clearPending {
		// Nothing to checkpoint. Recovered WALs (if any) contained no
		// committed ops, so deleting them loses nothing.
		s.removeOldWALs()
		return nil
	}
	seq := s.wal.seq
	var (
		meta segmentMeta
		err  error
	)
	if s.clearPending {
		// The graph was rebuilt from logged ops since the clear, so its
		// full content is exactly the post-clear state.
		meta, err = writeSegment(s.dir, seq, true, nil, s.g.Triples())
	} else {
		var adds, dels []rdf.Triple
		for t, isAdd := range s.mem {
			if isAdd {
				adds = append(adds, t)
			} else {
				dels = append(dels, t)
			}
		}
		meta, err = writeSegment(s.dir, seq, false, dels, adds)
	}
	if err != nil {
		return err
	}
	// Rotate the WAL before deleting anything: if we crash between the
	// segment rename and the WAL delete, recovery replays the WAL over
	// its own segment — idempotent, not lossy.
	nw, werr := createWAL(s.dir, seq+1)
	if werr != nil {
		return werr
	}
	old := s.wal
	s.wal = nw
	old.close()
	if s.clearPending {
		for _, m := range s.segs {
			os.Remove(m.path)
		}
		s.segs = []segmentMeta{meta}
	} else {
		s.segs = append(s.segs, meta)
	}
	os.Remove(old.path)
	s.removeOldWALs()
	s.mem = make(map[rdf.Triple]bool)
	s.clearPending = false
	s.met.flushes.Inc()
	s.publishGauges()
	if len(s.segs) >= s.opts.CompactSegments && !s.opts.NoBackground {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
	return nil
}

func (s *Store) removeOldWALs() {
	for _, p := range s.oldWALs {
		os.Remove(p)
	}
	s.oldWALs = nil
}

// Compact merges every live segment into one base segment, resolving
// tombstones and dropping superseded versions. Reads are unaffected; the
// store lock is held only to verify inputs and swap the segment list.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if len(s.segs) < 2 {
		s.mu.Unlock()
		return nil
	}
	inputs := append([]segmentMeta(nil), s.segs...)
	s.mu.Unlock()

	// Segments are immutable and only this method deletes published
	// ones, so reading them without the lock is safe; a concurrent
	// Clear-flush can delete inputs, which surfaces as ENOENT → abort.
	present := make(map[rdf.Triple]struct{})
	for _, m := range inputs {
		base, dels, adds, err := readSegment(m.path)
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if base {
			present = make(map[rdf.Triple]struct{})
		}
		for _, t := range dels {
			delete(present, t)
		}
		for _, t := range adds {
			present[t] = struct{}{}
		}
	}
	merged := make([]rdf.Triple, 0, len(present))
	for t := range present {
		merged = append(merged, t)
	}
	outSeq := inputs[len(inputs)-1].seq
	tmp, meta, err := writeSegmentTmp(s.dir, outSeq, true, nil, merged)
	if err != nil {
		return err
	}

	s.mu.Lock()
	if s.closed || len(s.segs) < len(inputs) {
		s.mu.Unlock()
		os.Remove(tmp)
		return nil
	}
	for i := range inputs {
		if s.segs[i].seq != inputs[i].seq {
			s.mu.Unlock()
			os.Remove(tmp)
			return nil
		}
	}
	// The rename replaces inputs[last] in place; older inputs become
	// unreferenced and are deleted below. A crash here is safe: recovery
	// applies the survivors in order and the base output wipes them.
	if err := publishSegment(s.dir, tmp, meta); err != nil {
		s.mu.Unlock()
		return err
	}
	olds := inputs[:len(inputs)-1]
	s.segs = append([]segmentMeta{meta}, s.segs[len(inputs):]...)
	s.met.compactions.Inc()
	s.publishGauges()
	s.mu.Unlock()

	for _, m := range olds {
		os.Remove(m.path)
	}
	return nil
}

func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.compactCh:
			if err := s.Compact(); err != nil && err != ErrClosed {
				// Compaction is an optimisation; a failure leaves the
				// store correct, just less compact. Try again on the
				// next trigger.
				continue
			}
		}
	}
}

func (s *Store) fsyncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.wal != nil && s.wal.bytes > 0 {
				start := time.Now()
				if err := s.wal.sync(); err == nil {
					s.met.fsync.Observe(time.Since(start).Seconds())
				}
			}
			s.mu.Unlock()
		}
	}
}

// Close flushes the memtable, syncs and closes the WAL, and stops the
// background goroutines. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	flushErr := s.flushLocked()
	s.closed = true
	var syncErr error
	if s.wal != nil {
		syncErr = s.wal.sync()
		if err := s.wal.close(); syncErr == nil {
			syncErr = err
		}
	}
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	if flushErr != nil {
		return flushErr
	}
	return syncErr
}

// Stats describes the store's on-disk and recovery state.
type Stats struct {
	// Segments is the live segment-file count.
	Segments int
	// SegmentBytes is the total size of live segments.
	SegmentBytes int64
	// WALBytes is the active WAL's size.
	WALBytes int64
	// Triples is the in-memory graph size.
	Triples int
	// PendingOps is the memtable's net op count (unflushed).
	PendingOps int
	// RecoveredOps is how many committed WAL ops the last Open replayed.
	RecoveredOps int
	// RecoveryTime is how long the last Open spent rebuilding.
	RecoveryTime time.Duration
	// TornWALs counts WAL files that ended in a partial record at Open.
	TornWALs int
}

// Stats returns a point-in-time view of the store's state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Segments:     len(s.segs),
		WALBytes:     0,
		Triples:      s.g.Len(),
		PendingOps:   len(s.mem),
		RecoveredOps: s.stats.recovered,
		RecoveryTime: s.stats.recoveryTime,
		TornWALs:     s.stats.tornWALs,
	}
	if s.wal != nil {
		st.WALBytes = s.wal.bytes
	}
	for _, m := range s.segs {
		st.SegmentBytes += m.bytes
	}
	return st
}

func (s *Store) publishGauges() {
	var segBytes int64
	for _, m := range s.segs {
		segBytes += m.bytes
	}
	s.met.segments.Set(float64(len(s.segs)))
	s.met.segBytes.Set(float64(segBytes))
	if s.wal != nil {
		s.met.walBytes.Set(float64(s.wal.bytes))
	}
}

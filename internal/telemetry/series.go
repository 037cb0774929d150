package telemetry

import "sync"

// Series is a bounded ring buffer of float64 observations — the
// per-window quality-metric time series the streaming drift detector
// maintains (one Series per tracked metric). It keeps the most recent
// cap observations; older ones fall off the front. Safe for concurrent
// use.
type Series struct {
	mu   sync.Mutex
	vals []float64
	head int // next write position
	n    int // filled count, ≤ cap(vals)
}

// NewSeries returns a Series retaining the most recent capacity values
// (minimum 1).
func NewSeries(capacity int) *Series {
	if capacity < 1 {
		capacity = 1
	}
	return &Series{vals: make([]float64, capacity)}
}

// Append records one observation, evicting the oldest when full.
func (s *Series) Append(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[s.head] = v
	s.head = (s.head + 1) % len(s.vals)
	if s.n < len(s.vals) {
		s.n++
	}
}

// Snapshot returns the retained observations, oldest first.
func (s *Series) Snapshot() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, 0, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.vals)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.vals[(start+i)%len(s.vals)])
	}
	return out
}

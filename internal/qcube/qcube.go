// Package qcube maintains a daQ-style quality cube: the multidimensional
// view of quality observations that the Dataset Quality Vocabulary
// (daQ, http://purl.org/eis/vocab/daq#) models as
// (metric, computedOn, timestamp, agent) → value facts.
//
// The paper's quality views consume annotations one data item at a time;
// operators and dashboards instead ask aggregate questions — "how did
// hit-ratio on UniProt trend this week?". Answering those from the raw
// annotation graph means a full SPARQL scan per question. The cube keeps
// pre-aggregated rollups — per metric, per source, per (metric, source),
// and time-bucketed series of each — maintained incrementally on every
// write, so a slice is a handful of map lookups instead of a graph scan
// (see cmd/experiment -cube for the measured gap).
//
// Only rollups are retained, never raw observations: memory is bounded by
// #metrics × #sources × #buckets, not by write volume.
package qcube

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"time"
)

// DaQNS is the Dataset Quality Vocabulary namespace.
const DaQNS = "http://purl.org/eis/vocab/daq#"

// Observation is one quality measurement fact, the daq:Observation shape:
// an Agent computed Metric on ComputedOn at time At, yielding Value.
type Observation struct {
	// Metric is the quality metric IRI (a q:QualityEvidence subclass in
	// the IQ model, a daq:Metric instance in daQ terms).
	Metric string `json:"metric"`
	// ComputedOn is the IRI of the resource the metric was computed on.
	ComputedOn string `json:"computedOn"`
	// Agent names the annotation function or service that computed it.
	Agent string `json:"agent,omitempty"`
	// Value is the measured value.
	Value float64 `json:"value"`
	// At is when the measurement was taken.
	At time.Time `json:"at"`
}

// Agg is an incremental aggregate over a set of observation values.
type Agg struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Mean returns the arithmetic mean, or NaN for an empty aggregate.
func (a Agg) Mean() float64 {
	if a.Count == 0 {
		return math.NaN()
	}
	return a.Sum / float64(a.Count)
}

func (a *Agg) observe(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
}

// MarshalJSON includes the derived mean so /cube consumers need no
// client-side arithmetic.
func (a Agg) MarshalJSON() ([]byte, error) {
	type plain Agg
	mean := 0.0
	if a.Count > 0 {
		mean = a.Mean()
	}
	return json.Marshal(struct {
		plain
		Mean float64 `json:"mean"`
	}{plain(a), mean})
}

// cellKey addresses the (metric, source) dimension pair; either side may
// be empty in rollup keys.
type cellKey struct{ metric, source string }

// series is a time-bucketed rollup: bucket start (unix nanos) → aggregate.
type series map[int64]*Agg

func (s series) observe(bucket int64, v float64) {
	a := s[bucket]
	if a == nil {
		a = &Agg{}
		s[bucket] = a
	}
	a.observe(v)
}

// Cube is the incremental quality cube. All methods are safe for
// concurrent use; Observe is O(1) (a fixed number of map updates).
type Cube struct {
	window time.Duration

	mu       sync.RWMutex
	total    Agg
	byMetric map[string]*Agg
	bySource map[string]*Agg
	byCell   map[cellKey]*Agg
	// Time-bucketed variants of each rollup above.
	totalSeries  series
	metricSeries map[string]series
	sourceSeries map[string]series
	cellSeries   map[cellKey]series
}

// DefaultWindow is the bucket width used when New is given zero.
const DefaultWindow = time.Minute

// New returns an empty cube whose time series bucket observations into
// windows of the given width.
func New(window time.Duration) *Cube {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Cube{
		window:       window,
		byMetric:     make(map[string]*Agg),
		bySource:     make(map[string]*Agg),
		byCell:       make(map[cellKey]*Agg),
		totalSeries:  make(series),
		metricSeries: make(map[string]series),
		sourceSeries: make(map[string]series),
		cellSeries:   make(map[cellKey]series),
	}
}

func (c *Cube) bucketOf(t time.Time) int64 {
	return t.Truncate(c.window).UnixNano()
}

// Observe folds one observation into every rollup.
func (c *Cube) Observe(o Observation) {
	if o.Metric == "" || o.At.IsZero() {
		return
	}
	bucket := c.bucketOf(o.At)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total.observe(o.Value)
	c.totalSeries.observe(bucket, o.Value)
	upsert := func(m map[string]*Agg, k string) {
		a := m[k]
		if a == nil {
			a = &Agg{}
			m[k] = a
		}
		a.observe(o.Value)
	}
	upsert(c.byMetric, o.Metric)
	seriesFor(c.metricSeries, o.Metric).observe(bucket, o.Value)
	if o.ComputedOn != "" {
		upsert(c.bySource, o.ComputedOn)
		seriesFor(c.sourceSeries, o.ComputedOn).observe(bucket, o.Value)
		key := cellKey{o.Metric, o.ComputedOn}
		a := c.byCell[key]
		if a == nil {
			a = &Agg{}
			c.byCell[key] = a
		}
		a.observe(o.Value)
		s := c.cellSeries[key]
		if s == nil {
			s = make(series)
			c.cellSeries[key] = s
		}
		s.observe(bucket, o.Value)
	}
}

func seriesFor(m map[string]series, k string) series {
	s := m[k]
	if s == nil {
		s = make(series)
		m[k] = s
	}
	return s
}

// SliceQuery addresses one cube slice. Empty Metric/Source mean "all";
// zero From/To leave that end of the time range open. The range is
// half-open [From, To) over bucket start times.
type SliceQuery struct {
	Metric string    `json:"metric,omitempty"`
	Source string    `json:"source,omitempty"`
	From   time.Time `json:"from,omitempty"`
	To     time.Time `json:"to,omitempty"`
}

// WindowAgg is one time bucket of a slice.
type WindowAgg struct {
	Start time.Time `json:"start"`
	Agg   Agg       `json:"agg"`
}

// SliceResult is the answer to a SliceQuery: the overall aggregate over
// the selected cells plus the per-window series, sorted by window start.
type SliceResult struct {
	Query   SliceQuery  `json:"query"`
	Agg     Agg         `json:"agg"`
	Windows []WindowAgg `json:"windows"`
}

// Slice answers an aggregate question from the pre-computed rollups: a
// map lookup to pick the right series, then a walk over its buckets —
// never a scan of the underlying observations.
func (c *Cube) Slice(q SliceQuery) SliceResult {
	c.mu.RLock()
	defer c.mu.RUnlock()

	var s series
	switch {
	case q.Metric != "" && q.Source != "":
		s = c.cellSeries[cellKey{q.Metric, q.Source}]
	case q.Metric != "":
		s = c.metricSeries[q.Metric]
	case q.Source != "":
		s = c.sourceSeries[q.Source]
	default:
		s = c.totalSeries
	}
	res := SliceResult{Query: q}
	if s == nil {
		return res
	}

	// Unbounded queries take the fully pre-aggregated answer.
	if q.From.IsZero() && q.To.IsZero() {
		switch {
		case q.Metric != "" && q.Source != "":
			if a := c.byCell[cellKey{q.Metric, q.Source}]; a != nil {
				res.Agg = *a
			}
		case q.Metric != "":
			if a := c.byMetric[q.Metric]; a != nil {
				res.Agg = *a
			}
		case q.Source != "":
			if a := c.bySource[q.Source]; a != nil {
				res.Agg = *a
			}
		default:
			res.Agg = c.total
		}
	}

	var from, to int64 = math.MinInt64, math.MaxInt64
	if !q.From.IsZero() {
		from = q.From.UnixNano()
	}
	if !q.To.IsZero() {
		to = q.To.UnixNano()
	}
	for bucket, a := range s {
		if bucket < from || bucket >= to {
			continue
		}
		res.Windows = append(res.Windows, WindowAgg{Start: time.Unix(0, bucket).UTC(), Agg: *a})
	}
	sort.Slice(res.Windows, func(i, j int) bool {
		return res.Windows[i].Start.Before(res.Windows[j].Start)
	})
	if !(q.From.IsZero() && q.To.IsZero()) {
		for _, w := range res.Windows {
			mergeAgg(&res.Agg, w.Agg)
		}
	}
	return res
}

func mergeAgg(dst *Agg, src Agg) {
	if src.Count == 0 {
		return
	}
	if dst.Count == 0 || src.Min < dst.Min {
		dst.Min = src.Min
	}
	if dst.Count == 0 || src.Max > dst.Max {
		dst.Max = src.Max
	}
	dst.Count += src.Count
	dst.Sum += src.Sum
}

// Summary is the cube's top-level shape, served on /cube with no query.
type Summary struct {
	Observations int64          `json:"observations"`
	Window       string         `json:"window"`
	Total        Agg            `json:"total"`
	Metrics      map[string]Agg `json:"metrics"`
	Sources      map[string]Agg `json:"sources"`
}

// Summary returns per-metric and per-source rollups plus totals.
func (c *Cube) Summary() Summary {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := Summary{
		Observations: c.total.Count,
		Window:       c.window.String(),
		Total:        c.total,
		Metrics:      make(map[string]Agg, len(c.byMetric)),
		Sources:      make(map[string]Agg, len(c.bySource)),
	}
	for k, a := range c.byMetric {
		s.Metrics[k] = *a
	}
	for k, a := range c.bySource {
		s.Sources[k] = *a
	}
	return s
}

// Len returns the total observation count folded into the cube.
func (c *Cube) Len() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.total.Count
}

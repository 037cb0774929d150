package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"qurator"
	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ops"
	"qurator/internal/services"
	"qurator/internal/stream"
	"qurator/internal/telemetry"
)

// collector records the traced run's spans. Every span is taken outside
// the program, around a call into a layer's public functions; nothing is
// added inside the program. A nil collector records nothing and its
// wrappers return what they were given, so the untraced run executes
// exactly quratord's stack.
type collector struct {
	mu       sync.Mutex
	spans    map[string][]interval
	counts   map[string]int64
	values   map[string][]float64
	queueMax float64
	heapMax  float64

	stopCh chan struct{}
	done   chan struct{}
}

func newCollector() *collector {
	c := &collector{stopCh: make(chan struct{}), done: make(chan struct{})}
	c.reset()
	go c.sample()
	return c
}

func (c *collector) reset() {
	c.spans = make(map[string][]interval)
	c.counts = make(map[string]int64)
	c.values = make(map[string][]float64)
	c.queueMax, c.heapMax = 0, 0
}

// stop ends the sampler and waits for it.
func (c *collector) stop() {
	close(c.stopCh)
	<-c.done
}

// sample polls the stream queue-depth gauges and the live heap every
// 20ms, keeping the maxima.
func (c *collector) sample() {
	defer close(c.done)
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
		}
		depth := 0.0
		for _, m := range telemetry.Default.Snapshot() {
			if m.Name == "qurator_stream_queue_depth" {
				for _, s := range m.Series {
					depth += s.Value
				}
			}
		}
		metrics.Read(heap)
		c.mu.Lock()
		c.queueMax = max(c.queueMax, depth)
		c.heapMax = max(c.heapMax, float64(heap[0].Value.Uint64()))
		c.mu.Unlock()
	}
}

func (c *collector) span(layer string, start, end time.Time) {
	c.mu.Lock()
	c.spans[layer] = append(c.spans[layer], interval{start.UnixNano(), end.UnixNano()})
	c.mu.Unlock()
}

// since records a span from start to now; use as defer c.since(l, time.Now()).
func (c *collector) since(layer string, start time.Time) { c.span(layer, start, time.Now()) }

func (c *collector) add(counter string, n int64) {
	c.mu.Lock()
	c.counts[counter] += n
	c.mu.Unlock()
}

func (c *collector) value(name string, v float64) {
	c.mu.Lock()
	c.values[name] = append(c.values[name], v)
	c.mu.Unlock()
}

// childLayers are the spans nested inside a stream handler span: what is
// left of the handler after them is its self time — the NDJSON codec,
// the windower, the reorder stage and the workflow engine around the
// services, none of which has a public seam.
var childLayers = []string{"qa", "annotator", "cluster.journal.lookup", "cluster.journal.commit"}

// layerReport is what the collector recorded since the previous report.
// Durations are in microseconds.
type layerReport struct {
	Dists  map[string]dist  `json:"dists"`
	Counts map[string]int64 `json:"counts"`
	// HandlerSelfNs sums, over stream handler spans, the span minus the
	// union of child spans overlapping it.
	HandlerSelfNs int64 `json:"handler_self_ns"`
	// Server is the union of every request the SUT served, for the
	// generator's unattributed-time computation.
	Server       []interval `json:"server"`
	QueueMax     float64    `json:"queue_max"`
	HeapMaxBytes float64    `json:"heap_max_bytes"`
}

// take summarises and clears what was recorded.
func (c *collector) take() *layerReport {
	c.mu.Lock()
	spans, counts, values, qmax, hmax := c.spans, c.counts, c.values, c.queueMax, c.heapMax
	c.reset()
	c.mu.Unlock()
	r := &layerReport{Dists: map[string]dist{}, Counts: counts, QueueMax: qmax, HeapMaxBytes: hmax}
	for layer, ivs := range spans {
		xs := make([]float64, len(ivs))
		for i, iv := range ivs {
			xs[i] = float64(iv.len()) / 1e3
		}
		r.Dists[layer] = summarize(xs)
	}
	for name, xs := range values {
		r.Dists[name] = summarize(xs)
	}
	var children []interval
	for _, l := range childLayers {
		children = append(children, spans[l]...)
	}
	for _, h := range spans["stream.handler"] {
		r.HandlerSelfNs += selfTime(h, children)
	}
	r.Server = union(spans["server"])
	return r
}

// wrap times every request h serves as a span of layer.
func (c *collector) wrap(layer string, h http.Handler) http.Handler {
	if c == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer c.since(layer, time.Now())
		h.ServeHTTP(w, r)
	})
}

// wrapPath times only the requests for one path.
func (c *collector) wrapPath(path, layer string, h http.Handler) http.Handler {
	if c == nil {
		return h
	}
	timed := c.wrap(layer, h)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path {
			timed.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// wrapQuery times POST /query end to end (parse, execute, encode) and
// reads the response it produced for the row count and the handler's
// own evaluation time (durationMillis), which is finer than the
// qurator_query_duration_seconds buckets.
func (c *collector) wrapQuery(h http.Handler) http.Handler {
	if c == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tw := &teeWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		c.span("query.http", start, time.Now())
		var resp qurator.QueryResponse
		if json.Unmarshal(tw.body.Bytes(), &resp) == nil {
			c.add("query.rows", int64(len(resp.Rows)))
			c.value("query.exec", resp.DurationMillis*1e3)
		}
	})
}

type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.body.Write(p)
	return t.ResponseWriter.Write(p)
}

// wrapAssertions swaps every deployed QA for a timed wrapper. Service
// names, classes and declared scope are unchanged, so compiled plans,
// shard scopes and MQO fingerprints are too.
func (c *collector) wrapAssertions(f *qurator.Framework) {
	for _, info := range f.Services.List() {
		svc, _ := f.Services.Get(info.Name)
		if as, ok := svc.(*services.AssertionService); ok {
			as.QA = c.timeQA(as.QA)
		}
	}
}

func (c *collector) timeQA(qa ops.QualityAssertion) ops.QualityAssertion {
	t := timedQA{QualityAssertion: qa, col: c}
	if iw, ok := qa.(ops.ItemWise); ok {
		return timedItemWiseQA{timedQA: t, iw: iw}
	}
	return t
}

type timedQA struct {
	ops.QualityAssertion
	col *collector
}

func (q timedQA) Assert(m *evidence.Map) error {
	defer q.col.since("qa", time.Now())
	return q.QualityAssertion.Assert(m)
}

// timedItemWiseQA keeps the optional ops.ItemWise interface of the QA it
// wraps.
type timedItemWiseQA struct {
	timedQA
	iw ops.ItemWise
}

func (q timedItemWiseQA) ItemWise() bool { return q.iw.ItemWise() }

// timedStore times the annotator's repository writes; the framework's
// cube observer runs inside Put, so its cost is included.
type timedStore struct {
	annotstore.Store
	col *collector
}

func (s timedStore) Put(a annotstore.Annotation) error {
	defer s.col.since("annotstore.put", time.Now())
	return s.Store.Put(a)
}

// timedJournal is the stream.WindowJournal handed to stream.WithJournal:
// commit time includes the WAL write and the wait for replication.
type timedJournal struct {
	stream.WindowJournal
	col *collector
}

func (j timedJournal) Lookup(key string) (stream.WindowResult, bool) {
	defer j.col.since("cluster.journal.lookup", time.Now())
	return j.WindowJournal.Lookup(key)
}

func (j timedJournal) Commit(key string, res stream.WindowResult) error {
	defer j.col.since("cluster.journal.commit", time.Now())
	return j.WindowJournal.Commit(key, res)
}

// peerTransport is the fleet Client's RoundTripper: it times journal
// replication and counts heartbeat probes.
func (c *collector) peerTransport() http.RoundTripper {
	base := http.DefaultTransport
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		switch r.URL.Path {
		case "/cluster/heartbeat":
			c.add("cluster.heartbeats", 1)
		case "/cluster/journal":
			start := time.Now()
			resp, err := base.RoundTrip(r)
			c.span("cluster.replicate", start, time.Now())
			c.add("cluster.replicate.requests", 1)
			c.add("cluster.replicate.bytes", max(r.ContentLength, 0))
			if err != nil || resp.StatusCode != http.StatusOK {
				c.add("cluster.replicate.failed", 1)
			}
			return resp, err
		}
		return base.RoundTrip(r)
	})
}

// forwardTransport is the fleet ForwardClient's RoundTripper: time to the
// owner's first response byte (headers travel with the first window),
// and bytes moved each way.
func (c *collector) forwardTransport() http.RoundTripper {
	base := http.DefaultTransport
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Body != nil {
			r = r.Clone(r.Context())
			r.Body = &countingBody{ReadCloser: r.Body, col: c}
		}
		start := time.Now()
		resp, err := base.RoundTrip(r)
		c.span("cluster.forward.first_byte", start, time.Now())
		if err == nil {
			resp.Body = &countingBody{ReadCloser: resp.Body, col: c}
		}
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type countingBody struct {
	io.ReadCloser
	col *collector
	n   atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	b.col.add("cluster.forward.bytes", b.n.Swap(0))
	return b.ReadCloser.Close()
}

// runtimeSample is the SUT's runtime/metrics state at one instant;
// the generator differences two of them.
type runtimeSample struct {
	GCCPUSeconds    float64   `json:"gc_cpu_s"`
	TotalCPUSeconds float64   `json:"total_cpu_s"`
	AllocBytes      uint64    `json:"alloc_bytes"`
	PauseCounts     []uint64  `json:"pause_counts"`
	PauseBuckets    []float64 `json:"pause_buckets"`
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	rs := runtimeSample{
		GCCPUSeconds:    s[0].Value.Float64(),
		TotalCPUSeconds: s[1].Value.Float64(),
		AllocBytes:      s[2].Value.Uint64(),
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		rs.PauseCounts = append([]uint64(nil), h.Counts...)
		// The outermost bounds may be infinite; JSON cannot carry them.
		for i, b := range h.Buckets {
			switch {
			case math.IsInf(b, -1):
				b = 0
			case math.IsInf(b, 1):
				b = h.Buckets[i-1]
			}
			rs.PauseBuckets = append(rs.PauseBuckets, b)
		}
	}
	return rs
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// sutReport is the body of GET /bench/report: the SUT's cumulative
// metrics registry and runtime state, the fleet's journal depths and
// provenance size, and (traced runs) the layer spans recorded since the
// previous report.
type sutReport struct {
	Registry    []telemetry.MetricSnapshot `json:"registry"`
	Runtime     runtimeSample              `json:"runtime"`
	Journals    []int                      `json:"journals,omitempty"`
	ProvRuns    int                        `json:"prov_runs"`
	ProvTriples int                        `json:"prov_triples"`
	Layers      *layerReport               `json:"layers,omitempty"`
}

// benchMux serves GET /bench/report in front of node 0's own handler.
// The report is read by the generator between phases, never while one is
// being timed.
func benchMux(nodes []*sutNode, col *collector, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/bench/report" {
			h.ServeHTTP(w, r)
			return
		}
		rep := sutReport{Registry: telemetry.Default.Snapshot(), Runtime: readRuntime()}
		for _, n := range nodes {
			if n.node != nil {
				rep.Journals = append(rep.Journals, n.node.Journal().Len())
			}
			rep.ProvRuns += n.f.Provenance.Len()
			rep.ProvTriples += n.f.Provenance.Graph().Len()
		}
		if col != nil {
			rep.Layers = col.take()
		}
		// JSON has no NaN or infinity; an unset gauge may hold either.
		for i := range rep.Registry {
			for j := range rep.Registry[i].Series {
				s := &rep.Registry[i].Series[j]
				s.Value, s.Sum = finite(s.Value), finite(s.Sum)
			}
		}
		b, err := json.Marshal(&rep)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
}

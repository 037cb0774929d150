package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// eventTime parameterises an event-time workload: items carry a
// q:ObservedAt event time spaced spacingMs apart, a seeded share of them
// displaced backwards within the out-of-order bound, and a seeded share
// of operations re-sending an item whose windows have already fired —
// late data that the stream answers with superseding re-emissions.
type eventTime struct {
	windowMs, slideMs int64
	oooMs, latenessMs int64
	spacingMs         int64
	// jitterEvery displaces one item in jitterEvery (except those opening
	// a slide) backwards in event time, by 1 to oooMs-2*spacingMs ms, so
	// it stays on time.
	jitterEvery uint64
	// lateEvery makes one operation in lateEvery a late re-send of the
	// item lateLag fresh items back.
	lateEvery uint64
	lateLag   int
}

// workload is one traffic mix the benchmark drives against the SUT.
type workload struct {
	name string
	// nodes is the fleet size inside the SUT process (1 = plain
	// quratord, no cluster layer).
	nodes int
	// durable turns on EnablePersistence with quratord's default fsync
	// policy (interval).
	durable bool
	// demoAnnotator deploys the demo annotator, so evidence is computed
	// per window and written to the annotation store instead of arriving
	// inline.
	demoAnnotator bool
	// prepopulate streams this many items into the data directory
	// before timing; the measured SUT restarts over it.
	prepopulate int
	// streams is the number of concurrent /stream/enact connections.
	streams int
	views   []string
	// params are the extra /stream/enact query parameters.
	params string
	// count is the tumbling count-window size; 0 selects event time.
	count int
	event *eventTime
	// rate is the open-loop arrival rate per stream, in items/s, set once
	// from the saturation throughput measured on this workload (see
	// README): low enough that a machine a tenth slower does not move
	// the latencies much.
	rate float64
	// queryRate is the open-loop rate of /query and /cube requests on
	// their own connection (0 = none).
	queryRate float64
	// satItems is how many items each stream writes in the saturation
	// phase: a few seconds' worth at the measured throughput.
	satItems int
}

// openShare is the share of --seconds spent in the open-loop phase, long
// enough for every workload to emit the 1000 windows a p99 needs.
const openShare = 0.9

var workloads = []*workload{
	{
		name:     "inline-count",
		nodes:    1,
		streams:  2,
		views:    []string{"paper"},
		count:    64,
		rate:     1300,
		satItems: 20000,
	},
	{
		name:     "fleet-journal",
		nodes:    3,
		durable:  true,
		streams:  2,
		views:    []string{"pv-a", "pv-b", "pv-c"},
		params:   "window=16",
		count:    16,
		rate:     100,
		satItems: 6000,
	},
	{
		name:          "eventtime-query",
		nodes:         1,
		durable:       true,
		demoAnnotator: true,
		prepopulate:   1000,
		streams:       1,
		views:         []string{"paper-durable"},
		event: &eventTime{
			windowMs: 4, slideMs: 2, oooMs: 4, latenessMs: 48, spacingMs: 1,
			jitterEvery: 5, lateEvery: 100, lateLag: 24,
		},
		rate:      40,
		queryRate: 25,
		satItems:  4800,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// enactPath is the /stream/enact request URI of the workload's streams.
func (w *workload) enactPath() string {
	q := "view=" + w.views[0]
	if len(w.views) > 1 {
		q = "views=" + strings.Join(w.views, ",")
	}
	if w.params != "" {
		q += "&" + w.params
	}
	if e := w.event; e != nil {
		q += fmt.Sprintf("&eventtime=q:ObservedAt&window-duration=%dms&slide-duration=%dms"+
			"&max-out-of-order=%dms&allowed-lateness=%dms&late=supersede",
			e.windowMs, e.slideMs, e.oooMs, e.latenessMs)
	}
	return "/stream/enact?" + q
}

// record renders the workload's parameters for the run record.
func (w *workload) record() map[string]any {
	m := map[string]any{
		"nodes": w.nodes, "durable": w.durable, "demo_annotator": w.demoAnnotator,
		"prepopulate_items": w.prepopulate, "streams": w.streams, "views": w.views,
		"enact_path": w.enactPath(), "rate_items_per_s_per_stream": w.rate,
		"query_rate_per_s": w.queryRate, "open_share": openShare,
		"saturation_items_per_stream": w.satItems, "sut_nice": sutNice,
	}
	if w.count > 0 {
		m["count_window"] = w.count
	}
	if e := w.event; e != nil {
		m["event_time"] = map[string]any{
			"window_ms": e.windowMs, "slide_ms": e.slideMs, "max_out_of_order_ms": e.oooMs,
			"allowed_lateness_ms": e.latenessMs, "spacing_ms": e.spacingMs,
			"jitter_every": e.jitterEvery, "late_every": e.lateEvery, "late_lag_items": e.lateLag,
		}
	}
	return m
}

// eventBaseMs is the event time of item 0 (2026-01-01T00:00:00Z).
const eventBaseMs = 1767225600000

// itemDef is one generated data item: its URI, its NDJSON line and (on
// event-time workloads) its event time.
type itemDef struct {
	id      string
	line    []byte
	eventMs int64
}

// op is one send: a fresh item, or a late re-send of an earlier one.
type op struct {
	item int
	late bool
}

// schedule is one stream's deterministic input: a pure function of the
// seed, the workload and the stream's tag. Items and operations are
// generated on demand and remembered, so the open-loop phase can
// precompute its schedule and the saturation phase can extend it for as
// long as backpressure lets it write.
type schedule struct {
	w     *workload
	seed  uint64
	tag   string
	items []itemDef
	ops   []op
}

func newSchedule(w *workload, seed int64, tag string) *schedule {
	return &schedule{w: w, seed: mix(uint64(seed), hashString(tag)), tag: tag}
}

// next appends and returns the next operation.
func (s *schedule) next() op {
	i := uint64(len(s.ops))
	o := op{item: len(s.items)}
	if e := s.w.event; e != nil && len(s.items) >= e.lateLag && s.rnd(i, 1)%e.lateEvery == 0 {
		o = op{item: len(s.items) - e.lateLag, late: true}
	} else {
		s.items = append(s.items, s.makeItem(len(s.items)))
	}
	s.ops = append(s.ops, o)
	return o
}

// extend generates operations until there are n.
func (s *schedule) extend(n int) {
	for len(s.ops) < n {
		s.next()
	}
}

func (s *schedule) rnd(i, salt uint64) uint64 { return mix(s.seed^salt*0x9e3779b97f4a7c15, i) }

// makeItem derives item idx: inline evidence drawn like quratord's demo
// annotator draws it (hit ratio and coverage in [0,1), masses 0-39,
// peptides 0-11), or just an event time when an annotator computes the
// evidence. Floats always print a decimal point so they decode as floats.
func (s *schedule) makeItem(idx int) itemDef {
	u := uint64(idx)
	id := fmt.Sprintf("urn:lsid:bench.qurator.org:%s:%d", s.tag, idx)
	var b strings.Builder
	b.Grow(160)
	b.WriteString(`{"item":"`)
	b.WriteString(id)
	b.WriteString(`","evidence":{`)
	it := itemDef{id: id}
	if e := s.w.event; e != nil {
		it.eventMs = eventBaseMs + int64(idx)*e.spacingMs
		// The item opening each slide is never displaced, so every window
		// decides at least one item: a superseding re-fire of a window
		// that decided none re-decides its whole content (see README).
		if (int64(idx)*e.spacingMs)%e.slideMs != 0 && s.rnd(u, 2)%e.jitterEvery == 0 {
			it.eventMs -= 1 + int64(s.rnd(u, 3)%uint64(e.oooMs-2*e.spacingMs))
		}
		b.WriteString(`"q:ObservedAt":`)
		b.WriteString(strconv.FormatInt(it.eventMs, 10))
	} else {
		h := s.rnd(u, 4)
		fmt.Fprintf(&b, `"q:HitRatio":%s,"q:Coverage":%s,"q:Masses":%d,"q:PeptidesCount":%d`,
			strconv.FormatFloat(float64(h%10000)/10000, 'f', 4, 64),
			strconv.FormatFloat(float64((h/10000)%10000)/10000, 'f', 4, 64),
			(h/100000000)%40, (h/4000000000)%12)
	}
	b.WriteString("}}\n")
	it.line = []byte(b.String())
	return it
}

// due is when open-loop operation i of stream k is due, relative to the
// phase start: a fixed rate per stream, with the streams staggered by an
// equal share of a count window, so their windows fire in turn rather
// than together.
func (w *workload) due(i, k int) time.Duration {
	per := float64(time.Second) / w.rate
	stagger := float64(max(w.count, 1)) / float64(w.streams)
	return time.Duration(per * (float64(i) + stagger*float64(k)))
}

// mix is SplitMix64 over a and b: a cheap, well-distributed pure
// function, so every generated value is a function of (seed, tag, index).
func mix(a, b uint64) uint64 {
	z := a + b*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

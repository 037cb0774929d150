// Quality-drift detection over streaming windows. The paper's follow-up
// line of work (Monitoring Information Quality within Web Service
// Composition and Execution) argues that quality metrics must be tracked
// as time series and acted on when they drift; this file closes that
// loop for the streaming enactor. Every emitted window contributes one
// observation per tracked metric — the window's accept rate plus the
// mean of each evidence/tag statistic — to an EWMA baseline with a
// two-sided CUSUM on top. When the CUSUM score crosses the alarm
// threshold, the detector fires an Alert: a metric, a counter, and an
// optional hook (quratord uses the hook to auto-tighten the view's
// filter condition via SetFilterCondition, turning the monitor into a
// closed control loop).
package stream

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"sync"

	"qurator/internal/compiler"
	"qurator/internal/telemetry"
)

var (
	driftScore = telemetry.Default.GaugeVec(
		"qurator_stream_drift_score",
		"Current two-sided CUSUM drift score of one stream quality metric, in baseline standard deviations.",
		"view", "metric")
	driftAlerts = telemetry.Default.CounterVec(
		"qurator_stream_drift_alerts_total",
		"Drift alerts fired, by metric and direction of the shift.",
		"view", "metric", "direction")
	driftTightened = telemetry.Default.CounterVec(
		"qurator_stream_drift_tighten_total",
		"Auto-tighten reactions to drift alerts, by outcome.",
		"view", "status")
)

// AcceptRateMetric is the always-tracked drift metric: the fraction of a
// window's decided items that reached at least one action output.
const AcceptRateMetric = "accept-rate"

// driftSeriesLen is how many recent per-window observations each metric
// track retains for the /stream/drift endpoint.
const driftSeriesLen = 128

// DriftConfig parameterises a stream's drift detector.
type DriftConfig struct {
	// Alpha is the EWMA smoothing factor of the baseline mean/variance
	// (default 0.1): small values adapt slowly, keeping a sustained shift
	// visible to the CUSUM before the baseline absorbs it.
	Alpha float64
	// K is the CUSUM slack in baseline standard deviations (default 0.5):
	// deviations below K·σ are treated as noise.
	K float64
	// H is the alarm threshold in baseline standard deviations (default
	// 5): the accumulated CUSUM score crossing H fires an alert.
	H float64
	// MinWindows is the baseline warm-up (default 8): no alerts before
	// this many observations of a metric.
	MinWindows int
	// Metrics restricts which window statistics are tracked (by stats
	// key, i.e. evidence/tag IRI). Empty tracks everything. The accept
	// rate is always tracked.
	Metrics []string
	// Registry, when set, exposes the stream's detector on the registry's
	// /stream/drift handler.
	Registry *DriftRegistry
	// OnAlert, when set, is called synchronously for every alert — the
	// auto-tightening hook.
	OnAlert func(Alert)
}

// withDefaults fills the zero fields.
func (c DriftConfig) withDefaults() DriftConfig {
	if c.Alpha <= 0 {
		c.Alpha = 0.1
	}
	if c.K <= 0 {
		c.K = 0.5
	}
	if c.H <= 0 {
		c.H = 5
	}
	if c.MinWindows <= 0 {
		c.MinWindows = 8
	}
	return c
}

// Alert is one detected quality drift.
type Alert struct {
	View string `json:"view"`
	// Metric is the drifted series: AcceptRateMetric or a stats key.
	Metric string `json:"metric"`
	// Direction is "up" or "down".
	Direction string `json:"direction"`
	// Window is the sequence number of the window that tripped the alarm.
	Window int `json:"window"`
	// Value is the observation that tripped it; Baseline the EWMA mean it
	// deviated from; Score the CUSUM score in baseline σ.
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline"`
	Score    float64 `json:"score"`
}

// Detector tracks one stream's quality metrics. Safe for concurrent use
// (Observe runs on the stream's emission goroutine; Snapshot on HTTP
// handlers).
type Detector struct {
	mu     sync.Mutex
	view   string
	cfg    DriftConfig
	only   map[string]bool // nil = track all stats keys
	tracks map[string]*driftTrack
}

type driftTrack struct {
	n          int     // observations
	ewma       float64 // baseline mean
	ewvar      float64 // baseline variance
	cusumHi    float64
	cusumLo    float64
	score      float64
	alerts     int
	last       float64
	lastWindow int
	series     *telemetry.Series
}

// NewDetector builds a drift detector for one stream.
func NewDetector(view string, cfg DriftConfig) *Detector {
	d := &Detector{
		view:   view,
		cfg:    cfg.withDefaults(),
		tracks: make(map[string]*driftTrack),
	}
	if len(cfg.Metrics) > 0 {
		d.only = make(map[string]bool, len(cfg.Metrics))
		for _, m := range cfg.Metrics {
			d.only[m] = true
		}
	}
	return d
}

// Observe folds one emitted window into the metric series: its accept
// rate (when it decided anything) and the mean of every tracked window
// statistic.
func (d *Detector) Observe(res WindowResult) {
	var alerts []Alert
	d.mu.Lock()
	if n := len(res.Decisions); n > 0 {
		accepted := 0
		for _, dec := range res.Decisions {
			if len(dec.Outputs) > 0 {
				accepted++
			}
		}
		if a := d.observe(AcceptRateMetric, float64(accepted)/float64(n), res.Seq); a != nil {
			alerts = append(alerts, *a)
		}
	}
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		if d.only == nil || d.only[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys) // deterministic alert order
	for _, k := range keys {
		if a := d.observe(k, res.Stats[k].Mean, res.Seq); a != nil {
			alerts = append(alerts, *a)
		}
	}
	d.mu.Unlock()
	// The hook runs unlocked: it may call back into code that snapshots
	// the detector (or tightens the view's filter).
	if d.cfg.OnAlert != nil {
		for _, a := range alerts {
			d.cfg.OnAlert(a)
		}
	}
}

// observe updates one metric track with an observation; caller holds the
// lock. Returns the alert it tripped, if any.
func (d *Detector) observe(metric string, x float64, window int) *Alert {
	tr := d.tracks[metric]
	if tr == nil {
		tr = &driftTrack{series: telemetry.NewSeries(driftSeriesLen)}
		d.tracks[metric] = tr
	}
	tr.last, tr.lastWindow = x, window
	tr.series.Append(x)
	var alert *Alert
	if tr.n >= d.cfg.MinWindows {
		sd := math.Sqrt(tr.ewvar)
		if sd < 1e-9 {
			sd = 1e-9
		}
		z := (x - tr.ewma) / sd
		tr.cusumHi = math.Max(0, tr.cusumHi+z-d.cfg.K)
		tr.cusumLo = math.Max(0, tr.cusumLo-z-d.cfg.K)
		tr.score = math.Max(tr.cusumHi, tr.cusumLo)
		driftScore.With(d.view, metric).Set(tr.score)
		if tr.score > d.cfg.H {
			dir := "up"
			if tr.cusumLo > tr.cusumHi {
				dir = "down"
			}
			tr.alerts++
			driftAlerts.With(d.view, metric, dir).Inc()
			alert = &Alert{
				View: d.view, Metric: metric, Direction: dir,
				Window: window, Value: x, Baseline: tr.ewma, Score: tr.score,
			}
			// Restart the accumulation so one sustained shift fires once
			// per crossing, not once per window.
			tr.cusumHi, tr.cusumLo, tr.score = 0, 0, 0
		}
	}
	// Update the baseline after scoring: the EWMA slowly absorbs the new
	// level, so a corrected-and-stable metric stops alerting.
	if tr.n == 0 {
		tr.ewma = x
	} else {
		delta := x - tr.ewma
		tr.ewma += d.cfg.Alpha * delta
		tr.ewvar = (1 - d.cfg.Alpha) * (tr.ewvar + d.cfg.Alpha*delta*delta)
	}
	tr.n++
	return alert
}

// TrackSnapshot is the externally-visible state of one metric track.
type TrackSnapshot struct {
	Windows    int       `json:"windows"`
	Baseline   float64   `json:"baseline"`
	StdDev     float64   `json:"stddev"`
	Last       float64   `json:"last"`
	LastWindow int       `json:"lastWindow"`
	Score      float64   `json:"score"`
	Alerts     int       `json:"alerts"`
	Series     []float64 `json:"series,omitempty"`
}

// Snapshot returns every tracked metric's state.
func (d *Detector) Snapshot() map[string]TrackSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]TrackSnapshot, len(d.tracks))
	for name, tr := range d.tracks {
		out[name] = TrackSnapshot{
			Windows:    tr.n,
			Baseline:   tr.ewma,
			StdDev:     math.Sqrt(tr.ewvar),
			Last:       tr.last,
			LastWindow: tr.lastWindow,
			Score:      tr.score,
			Alerts:     tr.alerts,
			Series:     tr.series.Snapshot(),
		}
	}
	return out
}

// DriftRegistry collects the drift detectors of the streams a host has
// served, keyed by view, for the GET /stream/drift endpoint. A view
// streaming again replaces its detector (the endpoint always shows the
// most recent stream's state).
type DriftRegistry struct {
	mu        sync.Mutex
	detectors map[string]*Detector
}

// NewDriftRegistry returns an empty registry.
func NewDriftRegistry() *DriftRegistry {
	return &DriftRegistry{detectors: make(map[string]*Detector)}
}

func (r *DriftRegistry) register(view string, d *Detector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.detectors[view] = d
}

// Detector returns the registered detector for a view.
func (r *DriftRegistry) Detector(view string) (*Detector, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.detectors[view]
	return d, ok
}

// Snapshot returns every registered view's metric tracks.
func (r *DriftRegistry) Snapshot() map[string]map[string]TrackSnapshot {
	r.mu.Lock()
	views := make(map[string]*Detector, len(r.detectors))
	for v, d := range r.detectors {
		views[v] = d
	}
	r.mu.Unlock()
	out := make(map[string]map[string]TrackSnapshot, len(views))
	for v, d := range views {
		out[v] = d.Snapshot()
	}
	return out
}

// Handler serves the registry as JSON: GET /stream/drift.
func (r *DriftRegistry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "drift: GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// AutoTighten returns an OnAlert hook that applies condition to the
// named filter action of the compiled view on the FIRST alert — the
// "auto-tighten thresholds when a source degrades" control loop.
// SetFilterCondition serialises against in-flight enactments, so the
// tightened condition takes effect from the next window on. Subsequent
// alerts are no-ops (the condition is already in force).
func AutoTighten(c *compiler.Compiled, action, condition string) func(Alert) {
	var once sync.Once
	return func(a Alert) {
		once.Do(func() {
			status := "ok"
			if err := c.SetFilterCondition(action, condition); err != nil {
				status = "error"
			}
			driftTightened.With(a.View, status).Inc()
		})
	}
}

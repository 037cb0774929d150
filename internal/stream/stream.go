// Package stream enacts compiled quality views continuously over
// unbounded data. The paper's enactment model is strictly batch: a view
// runs once over a finished collection, and collection-scoped QAs (the
// §5.1 avg±stddev classifier) assume the whole run is in hand. This
// package lifts that restriction: items arrive one at a time, one
// windower groups them into finite windows over a clock — each item's
// arrival index for count windows, its event time otherwise — each
// window is enacted by a worker pool through a merged plan of the
// stream's views (compiler.MultiView; a single view is a plan of one,
// enacting exactly as its compiled workflow would), and per-item
// accept/reject/class decisions are emitted as soon as their window
// resolves — while the input is still open. A window result names its
// view only when the plan has more than one member.
//
// The semantics is the windowed closure of batch enactment, with one law
// tying the two together: enacting a stream through a single window equal
// to the collection size yields exactly the batch result (the equivalence
// property test). Collection-scoped QAs therefore recompute their
// thresholds per window — the window is the collection.
//
// The pipeline is staged over bounded channels, so a slow consumer
// back-pressures the workers, the windower, and finally the producer; a
// cancelled context unwinds every stage.
//
//	in ──► windower ──► jobs ──► worker pool ──► results ──► reorder ──► out
//	        (one clock,   (cap P)  (P × enact)     (cap P)    (per-window
//	         live Amap,                                        order)
//	         Welford)
package stream

import (
	"context"
	"fmt"
	"maps"
	"math"
	"strconv"
	"sync"
	"time"

	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/qcache"
	"qurator/internal/telemetry"
)

// Streaming metrics, labelled by view (workflow) name. Lag is measured
// from window fire to in-order emission, so it includes queueing, the
// enactment itself, and any reorder stall behind a slower predecessor.
var (
	streamItems = telemetry.Default.CounterVec(
		"qurator_stream_items_total",
		"Items ingested from the input stream.",
		"view")
	streamWindows = telemetry.Default.CounterVec(
		"qurator_stream_windows_total",
		"Windows by outcome: ok, skipped (SkipFailedWindows), or failed.",
		"view", "status")
	streamQueueDepth = telemetry.Default.GaugeVec(
		"qurator_stream_queue_depth",
		"Fired windows waiting for a worker.",
		"view")
	streamWindowLag = telemetry.Default.HistogramVec(
		"qurator_stream_window_lag_seconds",
		"Time from window fire to in-order result emission.",
		nil, "view")
	streamWindowDuration = telemetry.Default.HistogramVec(
		"qurator_stream_window_duration_seconds",
		"Wall-clock time of one window enactment.",
		nil, "view")
	streamLateItems = telemetry.Default.CounterVec(
		"qurator_stream_late_items_total",
		"Late item arrivals by outcome: superseded (their window re-fired with a q:Supersedes link) or dropped (beyond allowed lateness / retention, or LatePolicy drop).",
		"view", "outcome")
	streamWatermark = telemetry.Default.GaugeVec(
		"qurator_stream_watermark_seconds",
		"Low watermark of the event-time stream, in unix seconds.",
		"view")
)

// Item is one arriving data item: its identity plus optional inline
// evidence. Inline evidence travels inside the window's annotation map,
// so purely-inline streams never touch an annotation repository — the
// repositories (and the view's annotators) still run per window for
// evidence the stream does not carry.
type Item struct {
	// ID identifies the data item (an LSID-wrapped URI).
	ID evidence.Item
	// Evidence carries inline evidence values keyed by evidence type.
	Evidence map[evidence.Key]evidence.Value
}

// Decision is the streaming verdict for one item: which action outputs it
// reached (empty = rejected by every action) and the class assignments it
// received. Classes come from the consolidated assertion state, so a
// rejected item still reports why it was rejected.
type Decision struct {
	// Item is the data item URI.
	Item string `json:"item"`
	// Window is the sequence number of the window that decided the item.
	Window int `json:"window"`
	// Outputs lists the workflow outputs ("<action>:<port>") containing
	// the item, in the view's declaration order.
	Outputs []string `json:"outputs"`
	// Classes maps classification-model IRIs to assigned label IRIs.
	Classes map[string]string `json:"classes,omitempty"`
}

// WindowStats summarises one numeric column over one window, with the
// §5.1 classifier cut points (mean ± stddev).
type WindowStats struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	// Lo and Hi are the avg±stddev classification thresholds in force for
	// this window.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// finite reports whether every figure of s is a finite number. A column
// whose values overflow float64 (say 1e308 beside -1e308) has an infinite
// or NaN mean or stddev, which JSON cannot encode.
func (s WindowStats) finite() bool {
	for _, f := range [...]float64{s.Mean, s.StdDev, s.Lo, s.Hi} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return false
		}
	}
	return true
}

// WindowResult is one enacted window: the decisions for its newly-decided
// items (in arrival order) and the per-key statistics of the window.
type WindowResult struct {
	// Seq is the window sequence number, starting at 0. Results are
	// emitted in Seq order regardless of worker completion order.
	Seq int `json:"window"`
	// Size is the number of items enacted (for sliding windows this
	// includes the context items decided by earlier windows).
	Size int `json:"size"`
	// Partial marks the final short window emitted when the input closes
	// before a full window accumulated.
	Partial bool `json:"partial,omitempty"`
	// Failed marks a window whose enactment failed under
	// SkipFailedWindows: its items were NOT decided (Decisions is empty)
	// and Error carries the cause. The stream itself kept going.
	Failed bool `json:"failed,omitempty"`
	// Replayed marks a window answered from the emission journal instead
	// of enacted: an identical window (same view, items and inline
	// evidence) was already decided and emitted — typically by a node
	// that has since died. Its decisions are the journaled originals.
	Replayed bool `json:"replayed,omitempty"`
	// View names the quality view that decided the window — carried so
	// downstream journals can attribute the emission without re-deriving
	// it from the idempotency key.
	View string `json:"view,omitempty"`
	// Error is the enactment failure for a Failed window.
	Error string `json:"error,omitempty"`
	// Kind names the event-time window shape ("tumbling", "sliding" or
	// "session"); empty for count-based windows.
	Kind string `json:"kind,omitempty"`
	// Start and End are the event-time window bounds in unix milliseconds
	// (End exclusive). Zero for count-based windows.
	Start int64 `json:"start,omitempty"`
	End   int64 `json:"end,omitempty"`
	// Late marks a superseding re-emission: a late item arrived after this
	// window had already fired, so the window was re-enacted in full and
	// this result replaces the one named by Supersedes.
	Late bool `json:"late,omitempty"`
	// Supersedes is the content-addressed journal key of the emission this
	// result replaces (set on Late results). The cluster journal links the
	// two with a q:Supersedes provenance triple.
	Supersedes string `json:"supersedes,omitempty"`
	// Decisions holds one decision per newly-decided item.
	Decisions []Decision `json:"decisions"`
	// firedAt is when the windower fired the window; the enactor uses it
	// to observe end-to-end window lag at emission time.
	firedAt time.Time
	// Stats maps annotation-map key IRIs (QA score tags, plus inline
	// numeric evidence types) to their window statistics. Tag statistics
	// are computed from the enacted window; evidence statistics are
	// maintained incrementally by the windower (Welford add/remove). A
	// key whose mean, stddev or thresholds are not finite is left out.
	Stats map[string]WindowStats `json:"stats,omitempty"`
}

// LatePolicy says what to do with an item that arrives after the window
// owning its event time (or, for count windows, the window that decided
// it) has already fired.
type LatePolicy int

const (
	// LateSupersede re-enacts the affected window in full and emits a
	// superseding result linked to the original via Supersedes /
	// q:Supersedes — the default. The item must still be within the
	// window's retention (AllowedLateness for event time, four slides
	// for count windows); beyond that it is dropped and counted.
	LateSupersede LatePolicy = iota
	// LateDrop discards late items, counting them in
	// qurator_stream_late_items_total{outcome="dropped"}.
	LateDrop
)

// Config parameterises a streaming enactment.
type Config struct {
	// Window is the count-based window size (required, 1 to 2⁶⁰, unless
	// EventTimeKey selects event-time windowing).
	Window int
	// Slide is the number of new items between window fires. 0 or
	// Slide == Window gives tumbling windows; 0 < Slide < Window gives
	// sliding windows where each fire decides the Slide newest items in
	// the context of the full window.
	Slide int
	// Parallelism is the worker-pool degree: how many windows enact
	// concurrently (0 means 1; at most 256). Per-window order
	// is preserved at the output regardless.
	Parallelism int
	// DropPartial suppresses the final short window when the input closes
	// mid-window; by default the remainder is enacted as a partial window.
	DropPartial bool
	// ProcessorTimeout, when positive, bounds every processor invocation
	// inside the stream's merged plan (stuck annotators fail the window
	// instead of wedging the stream). The member views' own workflows
	// are not touched.
	ProcessorTimeout time.Duration
	// SkipFailedWindows keeps the stream alive through window enactment
	// failures: instead of cancelling the whole pipeline on the first
	// error, the failed window is reported as a WindowResult with Failed
	// set (and no decisions) and later windows proceed. Off by default —
	// a batch-faithful stream fails fast.
	SkipFailedWindows bool
	// EventTimeKey switches the stream from count-based to event-time
	// windowing: every item must carry this inline-evidence key, holding
	// its event time as an integer (unix milliseconds) or an RFC 3339
	// string, from 1823-11-12 to 2116-02-20 (within 2⁶² ns of the Unix
	// epoch); any other value fails the stream. Items group into windows
	// by event time, and windows fire when the low watermark (max event
	// time seen − MaxOutOfOrder) passes their end.
	EventTimeKey evidence.Key
	// WindowDuration is the event-time window width (tumbling, or sliding
	// with SlideDuration). Mutually exclusive with SessionGap. It, the
	// SessionGap, MaxOutOfOrder and AllowedLateness are each at most 2⁶⁰
	// ns (36 years), so no window end or horizon overflows.
	WindowDuration time.Duration
	// SlideDuration is the event-time slide: 0 or == WindowDuration gives
	// tumbling windows; smaller values give aligned sliding windows where
	// each item is decided by the earliest window containing it.
	SlideDuration time.Duration
	// SessionGap, when positive, selects session windows: bursts of items
	// separated by gaps of at least SessionGap, each burst one window.
	SessionGap time.Duration
	// MaxOutOfOrder bounds the tolerated disorder: the watermark trails
	// the maximum event time by this much, so items up to MaxOutOfOrder
	// out of order are still windowed normally. 0 = in-order feed.
	MaxOutOfOrder time.Duration
	// AllowedLateness keeps a fired event-time window's state for this
	// long past its end (in watermark time): an item arriving below the
	// watermark but within the lateness bound re-fires its window as a
	// superseding emission. Beyond the bound late items are dropped.
	AllowedLateness time.Duration
	// LatePolicy picks between superseding re-emission (default) and
	// dropping late data.
	LatePolicy LatePolicy
	// Drift, when set, runs an EWMA+CUSUM drift detector over the stream's
	// per-window quality metrics (accept rate, evidence and tag means).
	Drift *DriftConfig
	// Journal, when set, gives window emission at-most-once semantics
	// across re-enactments (cluster failover): before enacting a fired
	// window the enactor looks its content-addressed idempotency key up —
	// a hit replays the journaled result instead of re-enacting; a miss
	// enacts and Commits the result durably before it is emitted. Paired
	// with an at-least-once replaying producer this yields exactly-once
	// decision emission.
	Journal WindowJournal
}

// WindowJournal is the durable emission record the cluster layer plugs
// into a streaming enactment. Keys are content-addressed over the
// window's view, items and inline evidence (see Enactor.windowKey), so
// the same window re-sent to a different node — or to the same node
// after a restart — maps to the same entry.
type WindowJournal interface {
	// Lookup returns the journaled result for key, if any.
	Lookup(key string) (WindowResult, bool)
	// Commit records the enacted result under key, durably, before any
	// decision from it reaches a client. An error fails the window (it
	// is NOT emitted): emitting without a journal entry could duplicate
	// the window after failover.
	Commit(key string, res WindowResult) error
}

// Enactor runs one or more compiled quality views over unbounded item
// sequences. One Enactor serves one stream at a time; the compiled views
// it wraps may be shared with batch enactments when idle. Every window
// is fed once through a merged plan (a single view is a plan of one) —
// shared annotator/enrichment/QA prefixes run once per window — and
// yields one WindowResult per member view.
type Enactor struct {
	plan  *compiler.MultiView
	views []streamView // member views in emission order
	cfg   Config
}

// streamView is one enacted view's identity and abstract plan — what the
// per-window decision projection needs.
type streamView struct {
	name string
	plan compiler.Plan
	// label is the View its results carry: the view name in a merged
	// stream, empty in a single-view stream, whose results stay
	// unattributed.
	label string
}

// EventTime reports whether the configuration selects event-time
// windowing (an event-time evidence key is declared).
func (cfg Config) EventTime() bool { return cfg.EventTimeKey.Value() != "" }

// normalise validates and defaults a streaming configuration.
func normalise(cfg Config) (Config, error) {
	if cfg.EventTime() {
		switch {
		case cfg.SessionGap > 0 && cfg.WindowDuration > 0:
			return cfg, fmt.Errorf("stream: session-gap and window-duration are mutually exclusive")
		case cfg.SessionGap <= 0 && cfg.WindowDuration <= 0:
			return cfg, fmt.Errorf("stream: event-time windowing needs window-duration or session-gap")
		}
		if cfg.WindowDuration > 0 {
			if cfg.SlideDuration == 0 {
				cfg.SlideDuration = cfg.WindowDuration
			}
			if cfg.SlideDuration < 0 || cfg.SlideDuration > cfg.WindowDuration {
				return cfg, fmt.Errorf("stream: slide-duration must be in (0, window-duration], got %v", cfg.SlideDuration)
			}
		}
		if cfg.MaxOutOfOrder < 0 {
			return cfg, fmt.Errorf("stream: negative max-out-of-order %v", cfg.MaxOutOfOrder)
		}
		if cfg.AllowedLateness < 0 {
			return cfg, fmt.Errorf("stream: negative allowed-lateness %v", cfg.AllowedLateness)
		}
		for _, d := range []time.Duration{cfg.WindowDuration, cfg.SessionGap, cfg.MaxOutOfOrder, cfg.AllowedLateness} {
			if d > maxSpan {
				return cfg, fmt.Errorf("stream: durations must be at most %v, got %v", time.Duration(maxSpan), d)
			}
		}
	} else {
		if cfg.Window < 1 || int64(cfg.Window) > maxSpan {
			return cfg, fmt.Errorf("stream: window size must be in [1, 2⁶⁰], got %d", cfg.Window)
		}
		if cfg.Slide == 0 {
			cfg.Slide = cfg.Window
		}
		if cfg.Slide < 1 || cfg.Slide > cfg.Window {
			return cfg, fmt.Errorf("stream: slide must be in [1, window], got %d", cfg.Slide)
		}
	}
	switch {
	case cfg.Parallelism < 0 || cfg.Parallelism > maxParallelism:
		return cfg, fmt.Errorf("stream: parallelism must be in [0, %d], got %d", maxParallelism, cfg.Parallelism)
	case cfg.Parallelism == 0:
		cfg.Parallelism = 1
	}
	if cfg.Drift != nil {
		d := cfg.Drift.withDefaults()
		cfg.Drift = &d
	}
	return cfg, nil
}

// maxParallelism caps Config.Parallelism: the worker pool and the
// channels between its stages are sized from it.
const maxParallelism = 256

// New validates the configuration and prepares a streaming enactor for
// the compiled view: a merged plan of one, which enacts each window
// exactly as the view itself would. The view's own workflow is left
// untouched (ProcessorTimeout applies to the stream's plan only), so it
// stays usable by batch enactments.
func New(compiled *compiler.Compiled, cfg Config) (*Enactor, error) {
	if compiled == nil {
		return nil, fmt.Errorf("stream: nil compiled view")
	}
	mv, err := compiler.MergeViews(compiled)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return NewMulti(mv, cfg)
}

// NewMulti prepares a streaming enactor over a merged view set: each
// window is enacted ONCE through the merged plan and every member view's
// decisions are emitted as its own WindowResult — same Seq, view order,
// distinguished by the View field when the plan has more than one
// member. Journal keys stay per (view, window content), identical to the
// keys N independent single-view streams would use, so cluster failover
// replays/commits each view's emission independently.
func NewMulti(mv *compiler.MultiView, cfg Config) (*Enactor, error) {
	if mv == nil {
		return nil, fmt.Errorf("stream: nil merged view set")
	}
	cfg, err := normalise(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.ProcessorTimeout > 0 {
		mv.Workflow().SetProcessorTimeout(cfg.ProcessorTimeout)
	}
	members := mv.Views()
	e := &Enactor{plan: mv, cfg: cfg}
	for _, v := range members {
		sv := streamView{name: v.Name(), plan: v.Plan()}
		if len(members) > 1 {
			sv.label = sv.name
		}
		e.views = append(e.views, sv)
	}
	return e, nil
}

// Config returns the enactor's normalised configuration, with defaults
// filled in; callers size the channels they feed Run from it.
func (e *Enactor) Config() Config { return e.cfg }

// Run consumes items from in until it closes or ctx is cancelled,
// enacting windows and emitting their results on out in window order. It
// closes out before returning. The first enactment error cancels the
// whole pipeline and is returned; a parent-context cancellation returns
// the context's error.
func (e *Enactor) Run(ctx context.Context, in <-chan Item, out chan<- WindowResult) (err error) {
	defer close(out)
	view := e.plan.Name()
	// One root span covers the whole stream, so every window enactment
	// below joins a single trace.
	ctx, streamSpan := telemetry.StartSpan(ctx, "stream:"+view)
	streamSpan.SetAttr("view", view)
	defer func() { streamSpan.EndErr(err) }()
	queueDepth := streamQueueDepth.With(view)
	defer queueDepth.Set(0)

	var drift *Detector
	if e.cfg.Drift != nil {
		drift = NewDetector(view, *e.cfg.Drift)
		if e.cfg.Drift.Registry != nil {
			e.cfg.Drift.Registry.register(view, drift)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan windowJob, e.cfg.Parallelism)
	// Each job resolves to one result per enacted view (len 1 for a
	// single-view stream), reordered and emitted as a unit so a window's
	// per-view results are adjacent on out.
	results := make(chan []WindowResult, e.cfg.Parallelism)

	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Stage 1: ingest + window. A single goroutine keeps the window state
	// (live Amap, accumulators, open and retained windows, watermark),
	// emitting jobs as windows fire — one watermark advance may close
	// several windows, and a late arrival may re-fire emitted ones, so a
	// single push can yield several jobs. The bounded jobs channel is the
	// backpressure point towards the producer.
	var ingestWG sync.WaitGroup
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		defer close(jobs)
		w := newWindower(e.cfg, view)
		enqueue := func(js []*windowJob) bool {
			for _, j := range js {
				select {
				case jobs <- *j:
					queueDepth.Add(1)
				case <-ctx.Done():
					return false
				}
			}
			return true
		}
		for {
			select {
			case <-ctx.Done():
				return
			case it, ok := <-in:
				if !ok {
					if js := w.flush(); !e.cfg.DropPartial {
						enqueue(js)
					}
					return
				}
				streamItems.With(view).Inc()
				js, perr := w.push(it)
				if perr != nil {
					fail(fmt.Errorf("stream: %w", perr))
					return
				}
				if !enqueue(js) {
					return
				}
			}
		}
	}()

	// Stage 2: worker pool. Each worker enacts whole windows through the
	// merged plan; annotator and QA invocations of distinct windows
	// therefore run fanned out across the pool, and within one window the
	// workflow engine already runs independent processors concurrently.
	var workerWG sync.WaitGroup
	for i := 0; i < e.cfg.Parallelism; i++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for j := range jobs {
				queueDepth.Add(-1)
				// Per-view journal keys: a merged stream journals each
				// member under the SAME key an independent single-view
				// stream of it would use, so views journaled before a
				// failover replay while the rest commit fresh.
				keys := make([]string, len(e.views))
				cached := make([]*WindowResult, len(e.views))
				hits := 0
				if e.cfg.Journal != nil {
					for i, sv := range e.views {
						keys[i] = e.windowKey(sv.name, j)
						if res, ok := e.cfg.Journal.Lookup(keys[i]); ok {
							// Already decided and emitted once (possibly by
							// a node that has since died): replay the
							// journaled decisions instead of re-enacting.
							// Attribution belongs to the emitting stream,
							// not the journal — the same entry serves a
							// single-view stream (unattributed) and a
							// merged one (attributed to the member view).
							res.Seq = j.seq
							res.Replayed = true
							res.firedAt = j.firedAt
							res.View = sv.label
							cached[i] = &res
							hits++
						}
					}
				}
				var batch []WindowResult
				var err error
				if hits < len(e.views) {
					began := time.Now()
					batch, err = e.enactBatch(ctx, j)
					streamWindowDuration.With(view).Observe(time.Since(began).Seconds())
				} else {
					// Every view already journaled: pure replay, no enactment.
					batch = make([]WindowResult, len(e.views))
				}
				if err == nil {
					for i := range e.views {
						if cached[i] != nil {
							streamWindows.With(view, "replayed").Inc()
							batch[i] = *cached[i]
							continue
						}
						if batch[i].Failed {
							streamWindows.With(view, "skipped").Inc()
							continue
						}
						if j.late && j.prev != nil {
							// A superseding re-fire names the emission it
							// replaces by the journal key the predecessor
							// window content maps to — derivable with or
							// without a journal attached.
							batch[i].Supersedes = e.windowKey(e.views[i].name, *j.prev)
						}
						streamWindows.With(view, "ok").Inc()
						if keys[i] != "" {
							// The journal entry must be durable before the
							// first decision escapes: a commit failure is a
							// window failure, not a silent best-effort.
							if cerr := e.cfg.Journal.Commit(keys[i], batch[i]); cerr != nil {
								err = fmt.Errorf("stream: window %d: journal commit: %w", j.seq, cerr)
								break
							}
						}
					}
				}
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					if !e.cfg.SkipFailedWindows {
						streamWindows.With(view, "failed").Inc()
						fail(err)
						return
					}
					// Skip-and-report: the window's items go undecided,
					// the stream lives on.
					batch = batch[:0]
					for _, sv := range e.views {
						streamWindows.With(view, "skipped").Inc()
						batch = append(batch, failedResult(sv, j, err))
					}
				}
				select {
				case results <- batch:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		workerWG.Wait()
		close(results)
	}()

	// Stage 3: reorder + emit. Windows complete out of order under
	// parallelism; decisions are released strictly in window order (and,
	// within one window, in view order). The pending map holds at most
	// Parallelism batches (each worker owns at most one
	// completed-but-unreleased window).
	pending := make(map[int][]WindowResult, e.cfg.Parallelism)
	next := 0
	for batch := range results {
		if ctx.Err() != nil || len(batch) == 0 {
			continue // drain so the workers can exit
		}
		pending[batch[0].Seq] = batch
		for ctx.Err() == nil {
			rs, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			for _, r := range rs {
				select {
				case out <- r:
					if !r.firedAt.IsZero() {
						streamWindowLag.With(view).Observe(time.Since(r.firedAt).Seconds())
					}
					if drift != nil && !r.Failed {
						drift.Observe(r)
					}
				case <-ctx.Done():
				}
				if ctx.Err() != nil {
					break
				}
			}
			next++
		}
	}
	ingestWG.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// windowJob is one window ready to enact: a snapshot of the window Amap,
// the item order, which items this fire decides, and the window's
// inline-evidence statistics.
type windowJob struct {
	seq     int
	items   []evidence.Item
	m       *evidence.Map
	decide  []evidence.Item
	partial bool
	stats   map[string]WindowStats
	firedAt time.Time

	// Event-time window identity: shape and bounds (zero for count).
	kind       string
	start, end time.Time
	// Supersession: gen counts this window's fires (0 = original), late
	// marks a superseding re-fire, prev is the previously-emitted content
	// of the same window (for deriving the superseded journal key).
	gen  int
	late bool
	prev *windowJob
}

// enactBatch runs one window through the compiled plan — once — and
// derives one WindowResult per enacted view, in view order. A member
// view's own failure (its quality service died and its degraded mode is
// off) fails the whole window unless SkipFailedWindows is set, in which
// case that view's result is marked Failed while its siblings' decisions
// stand — exactly what N independent streams over the same items would
// report.
func (e *Enactor) enactBatch(ctx context.Context, j windowJob) (_ []WindowResult, err error) {
	ctx, span := telemetry.StartSpan(ctx, fmt.Sprintf("window:%d", j.seq))
	span.SetAttr("size", fmt.Sprint(len(j.items)))
	defer func() { span.EndErr(err) }()

	res, eerr := e.plan.EnactMap(ctx, j.m)
	if eerr != nil {
		return nil, fmt.Errorf("stream: window %d: %w", j.seq, eerr)
	}
	batch := make([]WindowResult, 0, len(e.views))
	for _, sv := range e.views {
		vr := res[sv.name]
		if vr.Err != nil {
			if !e.cfg.SkipFailedWindows {
				return nil, fmt.Errorf("stream: window %d: %w", j.seq, vr.Err)
			}
			batch = append(batch, failedResult(sv, j, vr.Err))
			continue
		}
		// Each view derives its stats into its own copy: the windower's
		// inline-evidence statistics are per window, not per view.
		batch = append(batch, deriveResult(sv, vr.Outputs, j, maps.Clone(j.stats)))
	}
	return batch, nil
}

// failedResult is the undecided WindowResult of one view whose window
// enactment failed under SkipFailedWindows.
func failedResult(sv streamView, j windowJob, err error) WindowResult {
	res := WindowResult{
		Seq:       j.seq,
		Size:      len(j.items),
		Partial:   j.partial,
		Failed:    true,
		Error:     err.Error(),
		Kind:      j.kind,
		View:      sv.label,
		Late:      j.late,
		Decisions: []Decision{},
		firedAt:   j.firedAt,
	}
	if j.kind != "" {
		res.Start, res.End = j.start.UnixMilli(), j.end.UnixMilli()
	}
	return res
}

// deriveResult projects one view's outputs of an enacted window into its
// WindowResult: the newly-decided items' decisions plus the window tag
// statistics.
func deriveResult(sv streamView, outputs map[string]*evidence.Map, j windowJob, stats map[string]WindowStats) WindowResult {
	cons := outputs[compiler.OutputAnnotations]

	// Degraded quarantine enactments grow an extra output; surface it in
	// the decisions so quarantined items are visibly parked rather than
	// silently rejected.
	outputOrder := sv.plan.Outputs
	if _, ok := outputs[compiler.QuarantineOutput]; ok {
		outputOrder = append(append([]string(nil), outputOrder...), compiler.QuarantineOutput)
	}

	res := WindowResult{
		Seq:       j.seq,
		Size:      len(j.items),
		Partial:   j.partial,
		View:      sv.label,
		Kind:      j.kind,
		Late:      j.late,
		Decisions: Decide(j.decide, outputs, cons, outputOrder, j.seq),
		Stats:     stats,
		firedAt:   j.firedAt,
	}
	if j.kind != "" {
		res.Start, res.End = j.start.UnixMilli(), j.end.UnixMilli()
	}
	// Window score statistics: one Welford pass over the enacted window
	// per QA tag — O(1) per (item, tag).
	if cons == nil {
		return res
	}
	for _, tag := range sv.plan.Tags {
		var acc evidence.Accumulator
		for _, it := range j.items {
			if f, ok := cons.Get(it, tag).AsFloat(); ok {
				acc.Add(f)
			}
		}
		if acc.N() == 0 {
			continue
		}
		lo, hi := acc.Thresholds()
		st := WindowStats{N: acc.N(), Mean: acc.Mean(), StdDev: acc.StdDev(), Lo: lo, Hi: hi}
		if !st.finite() {
			continue
		}
		if res.Stats == nil {
			res.Stats = make(map[string]WindowStats)
		}
		res.Stats[tag.Value()] = st
	}
	return res
}

// windowKey derives the content-addressed idempotency key of a fired
// window for one view: the view name, the windowing shape, the item
// sequence and the canonical encoding of the window's annotation map
// (inline evidence included). Everything position-dependent is
// length-prefixed via qcache.Key, and the window sequence number is
// deliberately excluded — a resumed stream renumbers its windows from
// zero, and the SAME window content must map to the SAME journal entry
// regardless. Keyed by MEMBER view name, never the merged plan name, so
// a stream that re-forms with a different view set still replays the
// views it already emitted.
func (e *Enactor) windowKey(view string, j windowJob) string {
	// A count window decides a suffix of its items, and its key records
	// where the suffix starts; every other window records 0 here and its
	// whole decide set below.
	decideFrom := 0
	if j.kind == "" && j.gen == 0 {
		decideFrom = len(j.items) - len(j.decide)
	}
	k := qcache.NewKey().
		Str("stream-window").
		Str(view).
		Str(strconv.Itoa(decideFrom)).
		Str(strconv.FormatBool(j.partial)).
		Str(strconv.Itoa(len(j.items)))
	for _, it := range j.items {
		k.Str(it.Value())
	}
	k.Map(j.m)
	// Event-time windows and superseding re-fires extend the key with the
	// window identity: shape, event-time bounds, fire generation and the
	// explicit decide set. Bounds keep two same-content windows at
	// different event times distinct; the generation keeps a superseding
	// re-fire distinct from the emission it replaces even when the item
	// content is identical — without it a failover replay could answer the
	// correction from the original's journal entry. Plain count windows
	// omit the block, preserving their pre-event-time keys.
	if j.kind != "" || j.gen > 0 {
		k.Str("window-identity").
			Str(j.kind).
			Str(strconv.FormatInt(j.start.UnixNano(), 10)).
			Str(strconv.FormatInt(j.end.UnixNano(), 10)).
			Str(strconv.Itoa(j.gen)).
			Str(strconv.Itoa(len(j.decide)))
		for _, it := range j.decide {
			k.Str(it.Value())
		}
	}
	return k.Sum()
}

// Decide derives per-item decisions from one enactment's outputs — the
// shared projection both the streaming workers and the batch/stream
// equivalence check use. outputOrder fixes the Outputs ordering (the
// view's declaration order); consolidated supplies class assignments for
// every item, accepted or not.
func Decide(items []evidence.Item, outputs map[string]*evidence.Map, consolidated *evidence.Map, outputOrder []string, window int) []Decision {
	decisions := make([]Decision, 0, len(items))
	for _, it := range items {
		d := Decision{
			Item:    it.Value(),
			Window:  window,
			Outputs: []string{},
		}
		for _, name := range outputOrder {
			if m := outputs[name]; m != nil && m.HasItem(it) {
				d.Outputs = append(d.Outputs, name)
			}
		}
		if consolidated != nil {
			for k, v := range consolidated.Row(it) {
				if t, ok := v.AsTerm(); ok {
					if d.Classes == nil {
						d.Classes = make(map[string]string)
					}
					d.Classes[k.Value()] = t.Value()
				}
			}
		}
		decisions = append(decisions, d)
	}
	return decisions
}

package compiler

import (
	"context"
	"fmt"
	"sync"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
	"qurator/internal/telemetry"
	"qurator/internal/workflow"
)

// degradedFailures counts quality-service failures survived in degraded
// mode, labelled by the failing processor.
var degradedFailures = telemetry.Default.CounterVec(
	"qurator_degraded_failures_total",
	"Quality-service failures absorbed by degraded-mode enactment.",
	"processor")

// Degraded-mode enactment: when a quality service fails for good — the
// resilient transport exhausted its retries, the circuit is open, the
// per-processor retry/timeout wrappers gave up — the paper's batch
// semantics would abort the whole enactment. For a long-running fabric
// that is the wrong trade: one flaky QA host should not destroy an
// entire window of work. Instead, a failed annotator, enrichment, or QA
// invocation marks the evidence it would have produced as unknown and
// the view completes; items whose accept/reject decision depended on the
// missing evidence ("undecided" items) are then routed per policy.

// DegradedMode selects what happens to undecided items after a quality
// service failed mid-enactment.
type DegradedMode int

const (
	// DegradeOff fails the run with the failed service's error (the
	// strict pre-resilience behaviour; the default).
	DegradeOff DegradedMode = iota
	// DegradeFailClosed completes the enactment; undecided items are
	// rejected (appear in no filter output) — conservative: missing
	// evidence is treated as failing every condition.
	DegradeFailClosed
	// DegradeFailOpen completes the enactment; undecided items are added
	// to every filter's accepted output — optimistic: missing evidence
	// is treated as satisfying every condition.
	DegradeFailOpen
	// DegradeQuarantine completes the enactment; undecided items are
	// collected on a dedicated "quarantine" output (and removed from
	// splitter default ports) for later reprocessing.
	DegradeQuarantine
)

// String implements fmt.Stringer.
func (m DegradedMode) String() string {
	switch m {
	case DegradeOff:
		return "off"
	case DegradeFailClosed:
		return "fail-closed"
	case DegradeFailOpen:
		return "fail-open"
	case DegradeQuarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("DegradedMode(%d)", int(m))
	}
}

// ParseDegradedMode parses the command-line spelling of a mode.
func ParseDegradedMode(s string) (DegradedMode, error) {
	switch s {
	case "", "off":
		return DegradeOff, nil
	case "fail-closed", "failclosed":
		return DegradeFailClosed, nil
	case "fail-open", "failopen":
		return DegradeFailOpen, nil
	case "quarantine":
		return DegradeQuarantine, nil
	default:
		return DegradeOff, fmt.Errorf("compiler: unknown degraded mode %q (want off, fail-closed, fail-open, or quarantine)", s)
	}
}

// QuarantineOutput is the extra Run output holding undecided items under
// DegradeQuarantine (always present in that mode, empty when the run was
// clean).
const QuarantineOutput = "quarantine"

// DegradedEvidence marks an item whose evidence is unknown because a
// quality service failed: the consolidated annotation output carries
// (item, DegradedEvidence) → the failed processor's name for every item
// the failure touched.
var DegradedEvidence = rdf.IRI(ontology.QuratorNS + "DegradedEvidence")

// Failure records one quality-service failure survived in degraded mode.
type Failure struct {
	// Processor is the workflow processor that failed.
	Processor string
	// Err is the final error after retry/timeout policy was exhausted.
	Err error
	// Items is the data set the processor was invoked over — the items
	// whose evidence is now (partially) unknown.
	Items []evidence.Item
	// TraceID is the telemetry trace of the enactment that survived the
	// failure, linking the log entry to its span tree.
	TraceID string
}

// FailureLog collects the failures survived during one enactment. It is
// carried in the context so that the compiled processors — which are
// shared across concurrent runs (the streaming enactor runs windows in
// parallel) — never hold per-run state.
type FailureLog struct {
	mu       sync.Mutex
	failures []Failure
}

// NewFailureLog returns an empty log.
func NewFailureLog() *FailureLog { return &FailureLog{} }

// Add records one failure.
func (l *FailureLog) Add(f Failure) {
	l.mu.Lock()
	l.failures = append(l.failures, f)
	l.mu.Unlock()
}

// Failures returns the recorded failures in occurrence order (none for a
// nil log).
func (l *FailureLog) Failures() []Failure {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Failure(nil), l.failures...)
}

type failureLogKey struct{}

// WithFailureLog attaches a failure log to the context: compiled quality
// processors swallow terminal failures into the log instead of aborting.
// MultiView.EnactMap, which every run of a compiled view goes through,
// attaches its own log and copies each view's failures into the caller's;
// callers attach one to observe the failures of a run, or to record a
// failure before it starts.
func WithFailureLog(ctx context.Context, l *FailureLog) context.Context {
	return context.WithValue(ctx, failureLogKey{}, l)
}

// FailureLogFrom returns the failure log attached to the context, if any.
func FailureLogFrom(ctx context.Context) (*FailureLog, bool) {
	l, ok := ctx.Value(failureLogKey{}).(*FailureLog)
	return l, ok
}

// degradeProcessor wraps a quality-service processor (outside its
// retry/timeout decorators) so terminal failures degrade instead of
// aborting: the failure is recorded in the run's FailureLog and the
// processor's inputs pass through untouched — downstream sees the items
// with whatever evidence they already had, i.e. the failed service's
// contribution is unknown. With no FailureLog in the context — a bare
// workflow run outside MultiView.EnactMap — the wrapper is transparent
// and a failure aborts that run.
type degradeProcessor struct {
	inner  workflow.Processor
	pmode  mode
	inPort string
}

func (d *degradeProcessor) Name() string          { return d.inner.Name() }
func (d *degradeProcessor) InputPorts() []string  { return d.inner.InputPorts() }
func (d *degradeProcessor) OutputPorts() []string { return d.inner.OutputPorts() }

func (d *degradeProcessor) Execute(ctx context.Context, in workflow.Ports) (workflow.Ports, error) {
	out, err := d.inner.Execute(ctx, in)
	if err == nil {
		return out, nil
	}
	// A cancelled enactment is not a service failure — propagate. (A
	// per-processor deadline from the Timeout decorator expires the
	// child context, not this one, so it still degrades.)
	if ctx.Err() != nil {
		return nil, err
	}
	log, ok := FailureLogFrom(ctx)
	if !ok {
		return nil, err
	}
	f := Failure{Processor: d.inner.Name(), Err: err, TraceID: telemetry.TraceIDFrom(ctx)}
	m, _ := in[d.inPort].(*evidence.Map)
	if m != nil {
		f.Items = append([]evidence.Item(nil), m.Items()...)
	}
	log.Add(f)
	degradedFailures.With(d.inner.Name()).Inc()
	switch d.pmode {
	case modeAnnotator:
		// Annotators have no data output; the evidence simply never
		// reaches the repository.
		return workflow.Ports{}, nil
	case modeEnrichment, modeAssertion:
		// Pass the input map through unchanged: items keep the evidence
		// they already carry; this service's contribution is unknown.
		// Downstream only reads the map, so no clone is needed.
		if m == nil {
			m = evidence.NewMap()
		}
		return workflow.Ports{d.inner.OutputPorts()[0]: m}, nil
	default:
		return nil, err
	}
}

// applyDegradedRouting post-processes an enactment's outputs after
// failures were survived: it marks affected items' evidence unknown on
// the consolidated annotation output and routes undecided items per the
// compiled policy. An item is undecided when a failure touched it and no
// action claimed it — it appears in no filter output and in no splitter
// branch other than the default port (the splitter's k+1-th "none of the
// above" group, where condition-evaluation errors land). The mode is
// passed in — read once by the caller — so a concurrent SetDegradedMode
// cannot split one run across two policies.
func (c *Compiled) applyDegradedRouting(out workflow.Ports, failures []Failure, mode DegradedMode) {
	if mode == DegradeQuarantine {
		if _, ok := out[QuarantineOutput]; !ok {
			out[QuarantineOutput] = evidence.NewMap()
		}
	}
	if len(failures) == 0 {
		return
	}

	ann, _ := out[OutputAnnotations].(*evidence.Map)
	if ann == nil {
		ann = evidence.NewMap()
	}
	affected := map[evidence.Item]bool{}
	for _, f := range failures {
		for _, it := range f.Items {
			affected[it] = true
			ann.Set(it, DegradedEvidence, evidence.String_(f.Processor))
		}
	}

	decided := func(it evidence.Item) bool {
		for action, p := range c.actions {
			for _, port := range p.outs {
				if p.op == "split" && port == PortDefault {
					continue
				}
				if m, ok := out[outputName(action, port)].(*evidence.Map); ok && m.HasItem(it) {
					return true
				}
			}
		}
		return false
	}
	var undecided []evidence.Item
	undecidedSet := map[evidence.Item]bool{}
	for _, it := range ann.Items() { // annotation-map order keeps routing deterministic
		if affected[it] && !decided(it) {
			undecided = append(undecided, it)
			undecidedSet[it] = true
		}
	}
	if len(undecided) == 0 {
		return
	}

	switch mode {
	case DegradeFailOpen:
		for action, p := range c.actions {
			if p.op != "filter" {
				continue
			}
			m, ok := out[outputName(action, PortAccepted)].(*evidence.Map)
			if !ok {
				continue
			}
			for _, it := range undecided {
				m.AddItem(it)
				for k, v := range ann.Row(it) {
					m.Set(it, k, v)
				}
			}
		}
	case DegradeQuarantine:
		q := out[QuarantineOutput].(*evidence.Map)
		for _, it := range undecided {
			q.AddItem(it)
			for k, v := range ann.Row(it) {
				q.Set(it, k, v)
			}
		}
		// Quarantined items leave the splitter default ports — they are
		// parked for reprocessing, not classified "none of the above".
		for action, p := range c.actions {
			if p.op != "split" {
				continue
			}
			if m, ok := out[outputName(action, PortDefault)].(*evidence.Map); ok {
				out[outputName(action, PortDefault)] = m.Filter(func(it evidence.Item) bool {
					return !undecidedSet[it]
				})
			}
		}
	}
	// DegradeFailClosed: undecided items stay rejected; the marker on the
	// annotation output is the only trace.
}

// Package provenance records quality-process executions as RDF. The
// paper's exploration loop — run, inspect, edit the condition, run again —
// produces a sequence of runs whose configurations differ only in their
// action conditions; this log keeps that history queryable, so a user can
// ask "which condition produced the 18-item result?" the same way they
// query annotations (and myGrid, the project Qurator deploys into, treats
// provenance as first-class metadata).
//
// Each run is a q:QualityProcessRun resource:
//
//	<run>  rdf:type        q:QualityProcessRun
//	<run>  q:usedView      "view name"
//	<run>  q:startedAt     "RFC3339"
//	<run>  q:inputSize     n
//	<run>  q:outputSize    <output node> (name + size)
//	<run>  q:usedCondition <condition node> (action + expression)
//	<run>  q:traceID       "telemetry trace id" (when recorded)
package provenance

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"qurator/internal/mstore"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
	"qurator/internal/sparql"
)

// Vocabulary.
var (
	runClass      = ontology.Q("QualityProcessRun")
	propView      = ontology.Q("usedView")
	propStarted   = ontology.Q("startedAt")
	propDuration  = ontology.Q("durationMillis")
	propInputSize = ontology.Q("inputSize")
	propOutput    = ontology.Q("producedOutput")
	propOutName   = ontology.Q("outputName")
	propOutSize   = ontology.Q("outputSize")
	propCondition = ontology.Q("usedCondition")
	propCondAct   = ontology.Q("conditionAction")
	propCondExpr  = ontology.Q("conditionExpression")
	propTrace     = ontology.Q("traceID")

	// Window-emission vocabulary: cluster enactment journals every emitted
	// stream window here under its content-addressed idempotency key, so
	// a failed-over node can prove "this window's decisions already left
	// the building" against durable state rather than memory.
	emissionClass  = ontology.Q("WindowEmission")
	propEmitKey    = ontology.Q("idempotencyKey")
	propEmitResult = ontology.Q("emittedResult")
	propEmitView   = ontology.Q("emittedView")
	// propSupersedes links a late-data re-emission to the window emission
	// it replaces: the decisions of the object emission are revised by the
	// subject's.
	propSupersedes = ontology.Q("Supersedes")
)

// Record describes one quality-process execution.
type Record struct {
	// View is the quality view's name.
	View string
	// Started is the enactment start time.
	Started time.Time
	// Duration is the wall-clock enactment time.
	Duration time.Duration
	// InputSize is the data-set size.
	InputSize int
	// Outputs maps workflow output names to their item counts.
	Outputs map[string]int
	// Conditions maps action names to the condition text in force.
	Conditions map[string]string
	// TraceID is the telemetry trace of the enactment: the bridge from
	// the provenance record (what the run decided) to the recorded span
	// tree (how it behaved). Empty when telemetry was not in play.
	TraceID string
}

// Log accumulates run records as RDF. Safe for concurrent use. Attaching
// a durable backend with Persist makes every record WAL-committed; on
// reopen the run history — and the run numbering — continues where it
// left off.
type Log struct {
	mu    sync.Mutex
	graph *rdf.Graph
	seq   int
	// store, when set, is the durable backend; graph aliases store.Graph().
	store *mstore.Store
}

// NewLog returns an empty provenance log.
func NewLog() *Log {
	return &Log{graph: rdf.NewGraph()}
}

// Record appends a run and returns its resource IRI. With a durable
// backend the run is WAL-committed before Record returns; a store write
// failure is returned and leaves the run unrecorded.
func (l *Log) Record(rec Record) (rdf.Term, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	run := rdf.IRI(fmt.Sprintf("%srun/%d", ontology.QuratorNS, l.seq))
	adds := []rdf.Triple{
		rdf.T(run, rdf.IRI(rdf.RDFType), runClass),
		rdf.T(run, propView, rdf.Literal(rec.View)),
		rdf.T(run, propStarted, rdf.Literal(rec.Started.UTC().Format(time.RFC3339Nano))),
		rdf.T(run, propDuration, rdf.Integer(rec.Duration.Milliseconds())),
		rdf.T(run, propInputSize, rdf.Integer(int64(rec.InputSize))),
	}
	if rec.TraceID != "" {
		adds = append(adds, rdf.T(run, propTrace, rdf.Literal(rec.TraceID)))
	}
	for name, size := range rec.Outputs {
		node := rdf.IRI(fmt.Sprintf("%s#output-%s", run.Value(), name))
		adds = append(adds,
			rdf.T(run, propOutput, node),
			rdf.T(node, propOutName, rdf.Literal(name)),
			rdf.T(node, propOutSize, rdf.Integer(int64(size))))
	}
	for action, expr := range rec.Conditions {
		node := rdf.IRI(fmt.Sprintf("%s#condition-%s", run.Value(), action))
		adds = append(adds,
			rdf.T(run, propCondition, node),
			rdf.T(node, propCondAct, rdf.Literal(action)),
			rdf.T(node, propCondExpr, rdf.Literal(expr)))
	}
	if err := l.addLocked(adds); err != nil {
		l.seq--
		return rdf.Term{}, err
	}
	return run, nil
}

// addLocked is the log's single write path: through the durable store
// when one is attached (WAL-committed before the graph changes) or
// straight into the graph otherwise. The caller holds l.mu.
func (l *Log) addLocked(adds []rdf.Triple) error {
	if l.store != nil {
		_, err := l.store.AddBatch(adds)
		return err
	}
	_, err := l.graph.AddBatch(adds)
	return err
}

// emissionNS prefixes the resource of each journaled window emission.
const emissionNS = ontology.QuratorNS + "emission/"

// emissionNode is the resource of the window emission journaled under key.
func emissionNode(key string) rdf.Term { return rdf.IRI(emissionNS + key) }

// RecordEmission journals one emitted stream window under its
// content-addressed idempotency key, and reports whether the key was new.
// A non-empty supersedes names the emission this late re-emission
// revises: the q:Supersedes link commits in the same batch as the
// emission, so no crash or failed write can keep one without the other.
// Recording is set-semantic: a key already present is a no-op
// (re-recording the same emission cannot duplicate it), so replication
// and crash-replay may deliver the same entry any number of times. With a
// durable backend the entry is WAL-committed before RecordEmission
// returns.
func (l *Log) RecordEmission(key, view, supersedes, payload string) (bool, error) {
	node := emissionNode(key)
	typ := rdf.T(node, rdf.IRI(rdf.RDFType), emissionClass)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.graph.Has(typ) {
		return false, nil
	}
	adds := []rdf.Triple{
		typ,
		rdf.T(node, propEmitKey, rdf.Literal(key)),
		rdf.T(node, propEmitView, rdf.Literal(view)),
		rdf.T(node, propEmitResult, rdf.Literal(payload)),
	}
	if supersedes != "" {
		adds = append(adds, rdf.T(node, propSupersedes, emissionNode(supersedes)))
	}
	if err := l.addLocked(adds); err != nil {
		return false, err
	}
	return true, nil
}

// Superseded returns the idempotency key of the emission that newKey
// supersedes, if a q:Supersedes link was recorded. Graph-backed, so
// links recovered from the durable store after a restart are visible
// without any index rebuild.
func (l *Log) Superseded(newKey string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o := l.graph.FirstObject(emissionNode(newKey), propSupersedes)
	if o.Value() == "" {
		return "", false
	}
	return strings.TrimPrefix(o.Value(), emissionNS), true
}

// Emission returns the journaled payload for an idempotency key. It reads
// the graph, so emissions recovered from the durable store after a
// restart answer at once.
func (l *Log) Emission(key string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o := l.graph.FirstObject(emissionNode(key), propEmitResult)
	return o.Value(), !o.IsZero()
}

// Emissions returns the number of journaled window emissions.
func (l *Log) Emissions() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.graph.Cardinality(rdf.Term{}, rdf.IRI(rdf.RDFType), emissionClass)
}

// Len returns the number of recorded runs.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Query runs a SPARQL query against an O(1) snapshot of the provenance
// graph: evaluation holds no lock, so a long query never blocks Record.
func (l *Log) Query(query string) (*sparql.Result, error) {
	return sparql.Exec(l.Snapshot(), query)
}

// Snapshot returns an immutable O(1) view of the provenance graph.
func (l *Log) Snapshot() *rdf.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.graph.Snapshot()
}

// Graph returns an independent copy of the provenance graph (O(1),
// copy-on-write).
func (l *Log) Graph() *rdf.Graph {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.graph.Clone()
}

// LastRun returns the most recent run's record fields re-read from the
// graph (zero Record and false when empty).
func (l *Log) LastRun() (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq == 0 {
		return Record{}, false
	}
	run := rdf.IRI(fmt.Sprintf("%srun/%d", ontology.QuratorNS, l.seq))
	rec := Record{
		View:       l.graph.FirstObject(run, propView).Value(),
		Outputs:    map[string]int{},
		Conditions: map[string]string{},
	}
	if ts := l.graph.FirstObject(run, propStarted).Value(); ts != "" {
		if t, err := time.Parse(time.RFC3339Nano, ts); err == nil {
			rec.Started = t
		}
	}
	if ms, ok := l.graph.FirstObject(run, propDuration).Int(); ok {
		rec.Duration = time.Duration(ms) * time.Millisecond
	}
	if n, ok := l.graph.FirstObject(run, propInputSize).Int(); ok {
		rec.InputSize = int(n)
	}
	rec.TraceID = l.graph.FirstObject(run, propTrace).Value()
	for _, node := range l.graph.Objects(run, propOutput) {
		name := l.graph.FirstObject(node, propOutName).Value()
		if size, ok := l.graph.FirstObject(node, propOutSize).Int(); ok {
			rec.Outputs[name] = int(size)
		}
	}
	for _, node := range l.graph.Objects(run, propCondition) {
		action := l.graph.FirstObject(node, propCondAct).Value()
		rec.Conditions[action] = l.graph.FirstObject(node, propCondExpr).Value()
	}
	return rec, true
}

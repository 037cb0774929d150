// Package workflow implements the scientific-workflow model that Qurator
// targets (paper §6): processors drawn from an extensible collection,
// composed with data links and control links, enacted by an engine that
// invokes processors and transfers data from output ports to input ports.
//
// The model is deliberately the simple core shared by Taverna and similar
// systems (§6.1: "the simple workflow design primitives offered by Taverna
// ... are common to many similar models"): a control link from A to B
// means B starts as soon as A completes; a data link transfers one output
// port's value to one input port. Workflows are themselves processors, so
// a compiled quality workflow embeds into a host workflow as a single node
// (§6.2).
package workflow

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"qurator/internal/telemetry"
)

// Enactment metrics: every processor invocation lands here, labelled by
// workflow and processor, so /metrics answers "which node is slow?"
// without reading traces.
var (
	procDuration = telemetry.Default.HistogramVec(
		"qurator_processor_duration_seconds",
		"Wall-clock time of one processor invocation.",
		nil, "workflow", "processor")
	procFires = telemetry.Default.CounterVec(
		"qurator_processor_fires_total",
		"Processor invocations, successful or not.",
		"workflow", "processor")
	procFailures = telemetry.Default.CounterVec(
		"qurator_processor_failures_total",
		"Processor invocations that returned an error or panicked.",
		"workflow", "processor")
)

// Data is a value transferred along a data link. Processors agree on
// concrete types out of band (the Qurator services exchange annotation
// maps and item lists).
type Data interface{}

// Ports maps port names to values.
type Ports map[string]Data

// Processor is one workflow node.
type Processor interface {
	// Name is the processor's unique name within its workflow.
	Name() string
	// InputPorts and OutputPorts declare the node's interface.
	InputPorts() []string
	OutputPorts() []string
	// Execute consumes one value per input port and produces values for
	// (a subset of) the output ports.
	Execute(ctx context.Context, in Ports) (Ports, error)
}

// Func adapts a function into a Processor.
type Func struct {
	PName   string
	Inputs  []string
	Outputs []string
	Fn      func(ctx context.Context, in Ports) (Ports, error)
}

// Name implements Processor.
func (f *Func) Name() string { return f.PName }

// InputPorts implements Processor.
func (f *Func) InputPorts() []string { return f.Inputs }

// OutputPorts implements Processor.
func (f *Func) OutputPorts() []string { return f.Outputs }

// Execute implements Processor.
func (f *Func) Execute(ctx context.Context, in Ports) (Ports, error) {
	return f.Fn(ctx, in)
}

// Link is a data link: it transfers From's output port to To's input port.
type Link struct {
	From, FromPort string
	To, ToPort     string
}

func (l Link) String() string {
	return fmt.Sprintf("%s.%s -> %s.%s", l.From, l.FromPort, l.To, l.ToPort)
}

// ControlLink orders two processors without transferring data: To starts
// only after From completes.
type ControlLink struct {
	From, To string
}

// portRef addresses one port of one processor.
type portRef struct {
	proc, port string
}

// Workflow is a composition of processors. Build it with AddProcessor /
// AddLink / AddControlLink / BindInput / BindOutput, then Validate and
// Run. A Workflow is itself a Processor (for embedding).
type Workflow struct {
	name string

	procs        map[string]Processor
	procOrder    []string
	dataLinks    []Link
	controlLinks []ControlLink

	// inputs maps workflow-level input names to the processor ports they
	// feed; outputs maps workflow-level output names to their source port.
	inputs  map[string][]portRef
	outputs map[string]portRef

	// procTimeout bounds each processor invocation (see
	// SetProcessorTimeout); 0 means no deadline.
	procTimeout time.Duration
}

// New returns an empty workflow.
func New(name string) *Workflow {
	return &Workflow{
		name:    name,
		procs:   make(map[string]Processor),
		inputs:  make(map[string][]portRef),
		outputs: make(map[string]portRef),
	}
}

// Name implements Processor.
func (w *Workflow) Name() string { return w.name }

// InputPorts implements Processor: the workflow-level input names.
func (w *Workflow) InputPorts() []string {
	out := make([]string, 0, len(w.inputs))
	for n := range w.inputs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// OutputPorts implements Processor: the workflow-level output names.
func (w *Workflow) OutputPorts() []string {
	out := make([]string, 0, len(w.outputs))
	for n := range w.outputs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Processors returns the processor names in insertion order.
func (w *Workflow) Processors() []string {
	return append([]string(nil), w.procOrder...)
}

// Processor returns a processor by name.
func (w *Workflow) Processor(name string) (Processor, bool) {
	p, ok := w.procs[name]
	return p, ok
}

// DataLinks returns a copy of the data links.
func (w *Workflow) DataLinks() []Link { return append([]Link(nil), w.dataLinks...) }

// ControlLinks returns a copy of the control links.
func (w *Workflow) ControlLinks() []ControlLink {
	return append([]ControlLink(nil), w.controlLinks...)
}

// AddProcessor adds a node; names must be unique.
func (w *Workflow) AddProcessor(p Processor) error {
	name := p.Name()
	if name == "" {
		return fmt.Errorf("workflow %s: processor with empty name", w.name)
	}
	if _, ok := w.procs[name]; ok {
		return fmt.Errorf("workflow %s: duplicate processor %q", w.name, name)
	}
	w.procs[name] = p
	w.procOrder = append(w.procOrder, name)
	return nil
}

// MustAddProcessor is AddProcessor that panics on error.
func (w *Workflow) MustAddProcessor(p Processor) {
	if err := w.AddProcessor(p); err != nil {
		panic(err)
	}
}

func (w *Workflow) checkPort(proc, port string, output bool) error {
	p, ok := w.procs[proc]
	if !ok {
		return fmt.Errorf("workflow %s: unknown processor %q", w.name, proc)
	}
	ports := p.InputPorts()
	kind := "input"
	if output {
		ports = p.OutputPorts()
		kind = "output"
	}
	for _, pt := range ports {
		if pt == port {
			return nil
		}
	}
	return fmt.Errorf("workflow %s: processor %q has no %s port %q (has %v)", w.name, proc, kind, port, ports)
}

// AddLink adds a data link, validating both endpoints. Each input port
// accepts at most one producer (data link or workflow input).
func (w *Workflow) AddLink(l Link) error {
	if err := w.checkPort(l.From, l.FromPort, true); err != nil {
		return err
	}
	if err := w.checkPort(l.To, l.ToPort, false); err != nil {
		return err
	}
	if err := w.checkUnfed(l.To, l.ToPort); err != nil {
		return err
	}
	w.dataLinks = append(w.dataLinks, l)
	return nil
}

// MustAddLink is AddLink that panics on error.
func (w *Workflow) MustAddLink(l Link) {
	if err := w.AddLink(l); err != nil {
		panic(err)
	}
}

func (w *Workflow) checkUnfed(proc, port string) error {
	for _, l := range w.dataLinks {
		if l.To == proc && l.ToPort == port {
			return fmt.Errorf("workflow %s: input %s.%s already fed by %v", w.name, proc, port, l)
		}
	}
	for in, refs := range w.inputs {
		for _, r := range refs {
			if r.proc == proc && r.port == port {
				return fmt.Errorf("workflow %s: input %s.%s already bound to workflow input %q", w.name, proc, port, in)
			}
		}
	}
	return nil
}

// AddControlLink adds an ordering constraint.
func (w *Workflow) AddControlLink(c ControlLink) error {
	if _, ok := w.procs[c.From]; !ok {
		return fmt.Errorf("workflow %s: unknown processor %q", w.name, c.From)
	}
	if _, ok := w.procs[c.To]; !ok {
		return fmt.Errorf("workflow %s: unknown processor %q", w.name, c.To)
	}
	w.controlLinks = append(w.controlLinks, c)
	return nil
}

// BindInput routes a workflow-level input to a processor port. One input
// may fan out to several ports.
func (w *Workflow) BindInput(name, proc, port string) error {
	if err := w.checkPort(proc, port, false); err != nil {
		return err
	}
	if err := w.checkUnfed(proc, port); err != nil {
		return err
	}
	w.inputs[name] = append(w.inputs[name], portRef{proc, port})
	return nil
}

// BindOutput exposes a processor output port as a workflow-level output.
func (w *Workflow) BindOutput(name, proc, port string) error {
	if err := w.checkPort(proc, port, true); err != nil {
		return err
	}
	if _, ok := w.outputs[name]; ok {
		return fmt.Errorf("workflow %s: duplicate output %q", w.name, name)
	}
	w.outputs[name] = portRef{proc, port}
	return nil
}

// Validate checks structural well-formedness: every input port fed, no
// cycles across data+control edges.
func (w *Workflow) Validate() error {
	// Every processor input port must be fed by a link or workflow input.
	fed := map[portRef]bool{}
	for _, l := range w.dataLinks {
		fed[portRef{l.To, l.ToPort}] = true
	}
	for _, refs := range w.inputs {
		for _, r := range refs {
			fed[r] = true
		}
	}
	for _, name := range w.procOrder {
		for _, port := range w.procs[name].InputPorts() {
			if !fed[portRef{name, port}] {
				return fmt.Errorf("workflow %s: input port %s.%s is not fed", w.name, name, port)
			}
		}
	}
	// Cycle detection over the union of data and control edges.
	adj := map[string][]string{}
	for _, l := range w.dataLinks {
		adj[l.From] = append(adj[l.From], l.To)
	}
	for _, c := range w.controlLinks {
		adj[c.From] = append(adj[c.From], c.To)
	}
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := map[string]int{}
	var visit func(n string) error
	visit = func(n string) error {
		switch state[n] {
		case inStack:
			return fmt.Errorf("workflow %s: cycle through processor %q", w.name, n)
		case done:
			return nil
		}
		state[n] = inStack
		for _, next := range adj[n] {
			if err := visit(next); err != nil {
				return err
			}
		}
		state[n] = done
		return nil
	}
	for _, name := range w.procOrder {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}

// Event is one entry of an enactment trace. Its timestamps come from
// the processor's telemetry span, so trace events and recorded span
// trees agree to the nanosecond.
type Event struct {
	Processor string
	Start     time.Time
	End       time.Time
	Err       error
	// TraceID and SpanID tie the event to the telemetry span recorded
	// for this invocation.
	TraceID string
	SpanID  string
}

// Duration is the event's wall-clock time.
func (e Event) Duration() time.Duration { return e.End.Sub(e.Start) }

// Trace records one enactment.
type Trace struct {
	// TraceID is the telemetry trace every event of this enactment
	// belongs to.
	TraceID string

	mu     sync.Mutex
	Events []Event
}

func (t *Trace) add(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Events = append(t.Events, e)
}

// Execute implements Processor, so workflows nest.
func (w *Workflow) Execute(ctx context.Context, in Ports) (Ports, error) {
	return w.Run(ctx, in)
}

// Run enacts the workflow: processors start as soon as every input port
// has a value and every control predecessor has completed; independent
// processors run concurrently. It returns the workflow-level outputs.
func (w *Workflow) Run(ctx context.Context, in Ports) (Ports, error) {
	out, _, err := w.RunTrace(ctx, in)
	return out, err
}

// RunTrace is Run returning the enactment trace as well.
func (w *Workflow) RunTrace(ctx context.Context, in Ports) (Ports, *Trace, error) {
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	for name := range w.inputs {
		if _, ok := in[name]; !ok {
			return nil, nil, fmt.Errorf("workflow %s: missing workflow input %q", w.name, name)
		}
	}

	spanCtx, wfSpan := telemetry.StartSpan(ctx, "workflow:"+w.name)
	wfSpan.SetAttr("workflow", w.name)

	ctx, cancel := context.WithCancel(spanCtx)
	defer cancel()

	type procState struct {
		pendingData    int
		pendingControl int
		inputs         Ports
		started        bool
	}
	states := make(map[string]*procState, len(w.procs))
	for _, name := range w.procOrder {
		states[name] = &procState{inputs: Ports{}}
	}
	for _, l := range w.dataLinks {
		states[l.To].pendingData++
	}
	for _, c := range w.controlLinks {
		states[c.To].pendingControl++
	}
	// Workflow inputs count as pending data until delivered below.
	for _, refs := range w.inputs {
		for _, r := range refs {
			states[r.proc].pendingData++
		}
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		results  = make(map[string]Ports, len(w.procs))
		trace    = &Trace{TraceID: wfSpan.TraceID}
	)

	setErrLocked := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}

	var start func(name string, inputs Ports)

	// tryStartLocked launches the processor if all its inputs and control
	// predecessors are satisfied; the caller holds mu.
	tryStartLocked := func(name string) {
		st := states[name]
		if st.started || st.pendingData > 0 || st.pendingControl > 0 {
			return
		}
		st.started = true
		wg.Add(1)
		go start(name, st.inputs)
	}

	// deliverLocked routes a completed processor's outputs and control
	// signals to its successors; the caller holds mu.
	deliverLocked := func(name string, outputs Ports) {
		results[name] = outputs
		for _, l := range w.dataLinks {
			if l.From != name {
				continue
			}
			v, ok := outputs[l.FromPort]
			if !ok {
				setErrLocked(fmt.Errorf("workflow %s: processor %q produced no value on port %q needed by %v",
					w.name, name, l.FromPort, l))
				return
			}
			st := states[l.To]
			st.inputs[l.ToPort] = v
			st.pendingData--
			tryStartLocked(l.To)
		}
		for _, c := range w.controlLinks {
			if c.From != name {
				continue
			}
			states[c.To].pendingControl--
			tryStartLocked(c.To)
		}
	}

	start = func(name string, inputs Ports) {
		defer wg.Done()
		if ctx.Err() != nil {
			return
		}
		procCtx, span := telemetry.StartSpan(ctx, name)
		span.SetAttr("workflow", w.name)
		outputs, err := func() (out Ports, err error) {
			// A panicking processor must not take down the enactor (it
			// may be hosting many enactments); panics become errors.
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("workflow %s: processor %q panicked: %v", w.name, name, r)
				}
			}()
			execCtx := procCtx
			if w.procTimeout > 0 {
				var cancel context.CancelFunc
				execCtx, cancel = context.WithTimeout(procCtx, w.procTimeout)
				defer cancel()
			}
			return w.procs[name].Execute(execCtx, inputs)
		}()
		sd := span.EndErr(err)
		procFires.With(w.name, name).Inc()
		procDuration.With(w.name, name).Observe(sd.Duration().Seconds())
		if err != nil {
			procFailures.With(w.name, name).Inc()
		}
		trace.add(Event{
			Processor: name, Start: sd.Start, End: sd.End, Err: err,
			TraceID: sd.TraceID, SpanID: sd.SpanID,
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			setErrLocked(fmt.Errorf("workflow %s: processor %q: %w", w.name, name, err))
			return
		}
		deliverLocked(name, outputs)
	}

	// Seed: deliver workflow inputs, then start every satisfied processor.
	mu.Lock()
	for inputName, refs := range w.inputs {
		for _, r := range refs {
			st := states[r.proc]
			st.inputs[r.port] = in[inputName]
			st.pendingData--
		}
	}
	for _, name := range w.procOrder {
		tryStartLocked(name)
	}
	mu.Unlock()

	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		wfSpan.EndErr(firstErr)
		return nil, trace, firstErr
	}
	// Collect workflow-level outputs.
	out := make(Ports, len(w.outputs))
	for name, ref := range w.outputs {
		ports, ok := results[ref.proc]
		if !ok {
			err := fmt.Errorf("workflow %s: output %q source %q never ran", w.name, name, ref.proc)
			wfSpan.EndErr(err)
			return nil, trace, err
		}
		v, ok := ports[ref.port]
		if !ok {
			err := fmt.Errorf("workflow %s: output %q: processor %q produced no %q port",
				w.name, name, ref.proc, ref.port)
			wfSpan.EndErr(err)
			return nil, trace, err
		}
		out[name] = v
	}
	wfSpan.End()
	return out, trace, nil
}

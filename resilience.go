package qurator

import (
	"net/http"
	"time"

	"qurator/internal/compiler"
	"qurator/internal/resilience"
	"qurator/internal/services"
)

// Resilience configures the framework's fault tolerance for distributed
// deployments (the Figure 5 world where annotators, QAs and repositories
// live on other hosts). It layers three defences:
//
//   - Transport: every HTTP call to a remote host retries transient
//     failures with jittered backoff under a retry budget, trips a
//     per-endpoint circuit breaker, and propagates deadlines
//     (internal/resilience.Transport). Annotation writes are never
//     replayed at this layer.
//   - Processor: each compiled quality-service processor is bounded by
//     ProcessorTimeout and re-invoked up to RetryAttempts times
//     (workflow.Timeout / workflow.Retry) — application-level retries,
//     safe for annotation writes because repository puts are
//     set-semantic.
//   - Enactment: Degraded selects what a run does when a service has
//     failed for good — abort (off), reject the undecided items
//     (fail-closed), wave them through (fail-open), or park them on a
//     quarantine output.
type Resilience struct {
	// Transport is the HTTP retry/breaker policy. The zero value is
	// normalised to sane defaults (3 attempts, 25ms–2s backoff, 20%
	// retry budget, breaker at 5 consecutive failures).
	Transport resilience.Policy
	// BaseTransport underlies the resilient transport (nil =
	// http.DefaultTransport). Tests inject a chaos transport here.
	BaseTransport http.RoundTripper
	// RetryAttempts re-invokes a failed quality-service processor
	// (values < 2 disable processor-level retry).
	RetryAttempts int
	// RetryBackoff is the initial sleep between processor retries.
	RetryBackoff time.Duration
	// ProcessorTimeout bounds each quality-service invocation.
	ProcessorTimeout time.Duration
	// Degraded is the degraded-enactment policy (default DegradeOff).
	Degraded DegradedMode
}

// Degraded-enactment vocabulary, re-exported from the compiler.
type (
	// DegradedMode selects the routing of undecided items after a
	// quality service failed mid-enactment.
	DegradedMode = compiler.DegradedMode
)

const (
	// DegradeOff aborts the enactment on service failure (default).
	DegradeOff = compiler.DegradeOff
	// DegradeFailClosed rejects items whose evidence is unknown.
	DegradeFailClosed = compiler.DegradeFailClosed
	// DegradeFailOpen accepts items whose evidence is unknown.
	DegradeFailOpen = compiler.DegradeFailOpen
	// DegradeQuarantine parks undecided items on a "quarantine" output.
	DegradeQuarantine = compiler.DegradeQuarantine
)

// QuarantineOutput is the extra Run output under DegradeQuarantine.
const QuarantineOutput = compiler.QuarantineOutput

// DegradedEvidence is the marker annotation a degraded run sets on every
// item whose routing was decided by policy rather than by evidence; its
// value names the failed quality service.
var DegradedEvidence = compiler.DegradedEvidence

// ParseDegradedMode parses "off", "fail-closed", "fail-open" or
// "quarantine".
func ParseDegradedMode(s string) (DegradedMode, error) {
	return compiler.ParseDegradedMode(s)
}

// SetResilience installs a fault-tolerance configuration: subsequent
// Scavenge/ScavengeRepositories calls build resilient HTTP clients and
// subsequent CompileView calls emit guarded processors. Already-built
// clients and compiled views are unaffected.
func (f *Framework) SetResilience(r Resilience) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resilience = &r
	f.clients = nil // rebuild with the new policy on next use
}

// client returns the (cached) HTTP client for a remote Qurator host,
// resilient when a Resilience configuration is installed. Caching keeps
// one connection pool — and one set of circuit breakers — per host.
func (f *Framework) client(baseURL string) *services.Client {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.clients[baseURL]; ok {
		return c
	}
	var c *services.Client
	if f.resilience != nil {
		c = services.NewResilientClient(baseURL, f.resilience.Transport, f.resilience.BaseTransport)
	} else {
		c = &services.Client{BaseURL: baseURL}
	}
	if f.clients == nil {
		f.clients = make(map[string]*services.Client)
	}
	f.clients[baseURL] = c
	return c
}

// TransportFor returns the resilient transport serving a scavenged host
// (for breaker observability: TransportFor(url).BreakerStates()), or nil
// when no resilient client exists for it.
func (f *Framework) TransportFor(baseURL string) *resilience.Transport {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.clients[baseURL]; ok {
		return c.ResilientTransport()
	}
	return nil
}

// BreakerStates merges the circuit-breaker states of every cached remote
// client, keyed "host endpoint" → closed/open/half-open. Readiness
// endpoints report this map so "which upstream is this node shunning"
// is one GET away.
func (f *Framework) BreakerStates() map[string]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]string)
	for base, c := range f.clients {
		rt := c.ResilientTransport()
		if rt == nil {
			continue
		}
		for ep, st := range rt.BreakerStates() {
			out[base+" "+ep] = st.String()
		}
	}
	return out
}

package stream

import (
	"context"

	"qurator/internal/compiler"
	"qurator/internal/evidence"
)

// Hooks for the external tests (package stream_test), which hold the
// compiled views that tests inside the package cannot build.

// Windower drives a windower directly.
type Windower struct{ w *windower }

// FiredJob is one window job as the windower emitted it.
type FiredJob struct{ j *windowJob }

// NewWindower returns a windower over cfg, normalised.
func NewWindower(cfg Config) (*Windower, error) {
	cfg, err := normalise(cfg)
	if err != nil {
		return nil, err
	}
	return &Windower{w: newWindower(cfg, "test")}, nil
}

// Push adds one item and returns the jobs it fired.
func (c *Windower) Push(it Item) ([]FiredJob, error) {
	js, err := c.w.push(it)
	out := make([]FiredJob, len(js))
	for i, j := range js {
		out[i] = FiredJob{j}
	}
	return out, err
}

// Map returns the job's window map itself, not a copy.
func (f FiredJob) Map() *evidence.Map { return f.j.m }

// Late reports whether the job is a superseding re-fire.
func (f FiredJob) Late() bool { return f.j.late }

// Enact runs one fired job through e's plan.
func (e *Enactor) Enact(ctx context.Context, f FiredJob) ([]WindowResult, error) {
	return e.enactBatch(ctx, *f.j)
}

// Plans returns every enacted view's abstract plan in emission order.
func (e *Enactor) Plans() []compiler.Plan {
	out := make([]compiler.Plan, len(e.views))
	for i, v := range e.views {
		out[i] = v.plan
	}
	return out
}

// RecomputeStats is the windower's full-scan statistics over a window map.
func RecomputeStats(m *evidence.Map) map[string]WindowStats { return recomputeStats(m) }

package compiler

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"qurator/internal/evidence"
	"qurator/internal/qcache"
	"qurator/internal/services"
	"qurator/internal/telemetry"
	"qurator/internal/workflow"
)

// Data-plane metrics: how wide invocations fan out, and where split-mode
// responses carry groups the compiled workflow has no port for.
var (
	shardFanout = telemetry.Default.HistogramVec(
		"qurator_dataplane_shards",
		"Shards per service invocation (1 = serial fast path).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256},
		"processor")
	strayGroups = telemetry.Default.CounterVec(
		"qurator_dataplane_stray_groups_total",
		"Split-mode service responses carrying a group with no matching output port; their items are routed to the default port instead of being dropped.",
		"processor")
)

// invokeErr wraps a data-plane failure with the processor, service and
// operation it belongs to, so degraded-mode FailureLog entries name their
// culprit (plain svc.Invoke errors used to surface bare).
func (p *serviceProcessor) invokeErr(err error, shard, total int) error {
	op := p.op
	if op == "" {
		op = "invoke"
	}
	if total > 1 {
		return fmt.Errorf("compiler: processor %q: service %q op %q (shard %d/%d): %w",
			p.name, p.svc.Describe().Name, op, shard+1, total, err)
	}
	return fmt.Errorf("compiler: processor %q: service %q op %q: %w",
		p.name, p.svc.Describe().Name, op, err)
}

// cacheable reports whether this processor's responses may be memoised:
// only modes whose response is a pure function of the request envelope.
// Enrichment reads mutable repositories (a cached response would go stale
// when annotators write) and annotators ARE the writes (caching would
// silently skip them), so both always invoke.
func (p *serviceProcessor) cacheable() bool {
	switch p.mode {
	case modeAssertion, modeFilter, modeSplit:
		return p.cache != nil
	default:
		return false
	}
}

// cacheKey digests the full invocation identity: service, operation, the
// config snapshot in declared order (splitter group order is significant
// — it fixes response group order), and the shard payload's canonical
// encoding. Anything that can change the response changes the key.
func (p *serviceProcessor) cacheKey(cfg services.Config, shard *evidence.Map) string {
	k := qcache.NewKey().Str("qv1").Str(p.svc.Describe().Name).Str(p.op)
	for _, prm := range cfg.Params {
		k.Str(prm.Name).Str(prm.Value)
	}
	return k.Map(shard).Sum()
}

// invokeShard performs one service invocation, through the cache when the
// mode allows. Cached values are response envelopes — immutable once
// stored; every consumer reads its own fresh maps from them.
func (p *serviceProcessor) invokeShard(ctx context.Context, shard *evidence.Map, cfg services.Config) (*services.Envelope, error) {
	invoke := func() (*services.Envelope, error) {
		req := services.NewEnvelope(shard)
		req.Config = cfg
		req.Operation = p.op
		return p.svc.Invoke(ctx, req)
	}
	if !p.cacheable() {
		return invoke()
	}
	v, _, err := p.cache.GetOrCompute(ctx, p.cacheKey(cfg, shard), func() (any, error) {
		return invoke()
	})
	if err != nil {
		return nil, err
	}
	return v.(*services.Envelope), nil
}

// shardInput splits the processor's input for fan-out. Sharding engages
// only when a shard size is configured, the input is larger than one
// shard, and the service declares item scope — collection-scoped services
// (the §5.1 statistical classifier) must see the whole map or their
// output changes.
func (p *serviceProcessor) shardInput(m *evidence.Map) []*evidence.Map {
	if p.shardSize <= 0 || m.Len() <= p.shardSize {
		return []*evidence.Map{m}
	}
	if p.svc.Describe().Scope != services.ScopeItem {
		return []*evidence.Map{m}
	}
	return m.Shard(p.shardSize)
}

// invokeShards fans the shards through a bounded worker pool and returns
// the responses in shard order. A single shard stays on the calling
// goroutine — the serial path allocates nothing extra. The first failure
// cancels the remaining work and is returned with shard context.
func (p *serviceProcessor) invokeShards(ctx context.Context, shards []*evidence.Map, cfg services.Config) ([]*services.Envelope, error) {
	shardFanout.With(p.name).Observe(float64(len(shards)))
	resps := make([]*services.Envelope, len(shards))
	if len(shards) == 1 {
		resp, err := p.invokeShard(ctx, shards[0], cfg)
		if err != nil {
			return nil, p.invokeErr(err, 0, 1)
		}
		resps[0] = resp
		return resps, nil
	}
	inflight := p.maxInflight
	if inflight <= 0 {
		inflight = runtime.GOMAXPROCS(0)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, inflight)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, shard := range shards {
		if cctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, shard *evidence.Map) {
			defer wg.Done()
			// Acquire under cancellation: once a shard fails and cancel()
			// fires, queued workers must not block for a slot just to
			// notice the run is over.
			select {
			case sem <- struct{}{}:
			case <-cctx.Done():
				return
			}
			defer func() { <-sem }()
			if cctx.Err() != nil {
				return
			}
			resp, err := p.invokeShard(cctx, shard, cfg)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = p.invokeErr(err, i, len(shards))
					cancel()
				}
				mu.Unlock()
				return
			}
			resps[i] = resp
		}(i, shard)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return resps, nil
}

// mergeMapResponses reads each shard response's map and concatenates
// them in shard order — for item-scoped services this reconstructs
// exactly the map a single whole-input invocation would have returned.
func (p *serviceProcessor) mergeMapResponses(resps []*services.Envelope) (*evidence.Map, error) {
	outs := make([]*evidence.Map, len(resps))
	for i, resp := range resps {
		m, err := resp.Map()
		if err != nil {
			return nil, p.invokeErr(err, i, len(resps))
		}
		outs[i] = m
	}
	return evidence.MergeShards(outs), nil
}

// mergeSplitResponses merges per-shard split groups port-wise, preserving
// shard order within every port. Groups the service returned that have no
// matching output port are routed — deterministically, sorted by group
// name after the true default group — into PortDefault and counted, so a
// service/view mismatch degrades items to "unclassified" instead of
// silently vanishing from the data set.
func (p *serviceProcessor) mergeSplitResponses(resps []*services.Envelope) (workflow.Ports, error) {
	known := make(map[string]bool, len(p.outs))
	for _, out := range p.outs {
		known[out] = true
	}
	perPort := make(map[string][]*evidence.Map, len(p.outs))
	for i, resp := range resps {
		groups, err := resp.GroupMaps()
		if err != nil {
			return nil, p.invokeErr(err, i, len(resps))
		}
		for _, out := range p.outs {
			if g, ok := groups[out]; ok {
				perPort[out] = append(perPort[out], g)
			}
		}
		var strays []string
		for name := range groups {
			if !known[name] {
				strays = append(strays, name)
			}
		}
		sort.Strings(strays)
		for _, name := range strays {
			strayGroups.With(p.name).Inc()
			perPort[PortDefault] = append(perPort[PortDefault], groups[name])
		}
	}
	ports := workflow.Ports{}
	for _, out := range p.outs {
		shards := perPort[out]
		if len(shards) == 0 {
			ports[out] = evidence.NewMap()
			continue
		}
		ports[out] = evidence.MergeShards(shards)
	}
	return ports, nil
}

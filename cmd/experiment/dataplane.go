package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"qurator/internal/ispider"
	"qurator/internal/qcache"
	"qurator/internal/telemetry"
)

// The data-plane experiment compares serial, sharded and sharded+cached
// enactment of the §5.1 view embedded in the Figure-1 host workflow, over
// one identical world. It is the Figure-7 wall-clock story re-told along
// the shard-count axis, with a built-in tripwire: the "equivalent" check
// fails if any configuration's outputs are not bit-identical to the
// serial run.

// dataPlaneConfig is one point on the shard/cache grid.
type dataPlaneConfig struct {
	Name        string `json:"name"`
	ShardSize   int    `json:"shard_size"`
	MaxInflight int    `json:"max_inflight"`
	Cache       bool   `json:"cache"`
}

func dataPlaneGrid() []dataPlaneConfig {
	return []dataPlaneConfig{
		{Name: "serial"},
		{Name: "shard2", ShardSize: 2},
		{Name: "shard4", ShardSize: 4},
		{Name: "shard8", ShardSize: 8},
		{Name: "shard4+cache", ShardSize: 4, Cache: true},
	}
}

// fingerprint canonically encodes one run's outputs: the accepted
// annotation map plus the GO-term counts.
func fingerprint(out *ispider.RunOutput) (string, error) {
	var b bytes.Buffer
	if err := out.Accepted.WriteCanonical(&b); err != nil {
		return "", err
	}
	terms := make([]string, 0, len(out.TermCounts))
	for t := range out.TermCounts {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		fmt.Fprintf(&b, "%s=%d;", t, out.TermCounts[t])
	}
	return b.String(), nil
}

// measureDataPlane runs the full grid and assembles the record: per
// configuration the best and mean wall-clock over the repeats, the
// accepted count (identical across configurations by construction) and,
// with a cache, hits and misses totalled over all repeats.
func measureDataPlane(world *ispider.World, repeats int) (*record, error) {
	if repeats < 1 {
		repeats = 1
	}
	rec := newRecord("dataplane", map[string]any{
		"world": world.Params, "repeats": repeats, "grid": dataPlaneGrid(),
	})
	equivalent := true
	var serialPrint string
	for _, cfg := range dataPlaneGrid() {
		var cache *qcache.Cache
		if cfg.Cache {
			cache = qcache.New(qcache.Options{Name: "exp-" + cfg.Name})
		}
		p, err := ispider.BuildPipelineWith(world, ispider.PipelineOptions{
			ShardSize:   cfg.ShardSize,
			MaxInflight: cfg.MaxInflight,
			Cache:       cache,
		})
		if err != nil {
			return nil, err
		}
		// The distribution-relative condition, as in the Figure 6/7 runs.
		if err := p.Compiled.SetFilterCondition("filter top k score", "ScoreClass in q:high"); err != nil {
			return nil, err
		}
		var best, sum float64
		accepted := 0
		for r := 0; r < repeats; r++ {
			start := time.Now()
			out, err := p.Run(context.Background())
			if err != nil {
				return nil, fmt.Errorf("config %s run %d: %w", cfg.Name, r, err)
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			if r == 0 || ms < best {
				best = ms
			}
			sum += ms
			print, err := fingerprint(out)
			if err != nil {
				return nil, err
			}
			if serialPrint == "" {
				serialPrint = print
			} else if print != serialPrint {
				equivalent = false
			}
			accepted = out.Accepted.Len()
		}
		rec.metric(cfg.Name+"/best_ms", "ms", best, repeats)
		rec.metric(cfg.Name+"/mean_ms", "ms", sum/float64(repeats), repeats)
		rec.metric(cfg.Name+"/accepted", "items", float64(accepted), repeats)
		if cache != nil {
			s := cache.Stats()
			rec.metric(cfg.Name+"/cache_hits", "count", float64(s.Hits), repeats)
			rec.metric(cfg.Name+"/cache_misses", "count", float64(s.Misses), repeats)
		}
	}
	rec.check("equivalent", equivalent, "every configuration's outputs bit-identical to serial enactment")
	rec.Registry = telemetry.Default.Snapshot()
	return rec, nil
}

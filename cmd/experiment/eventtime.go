package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"qurator/internal/annotstore"
	"qurator/internal/binding"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/qa"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/services"
	"qurator/internal/stream"
	"qurator/internal/telemetry"
)

// The event-time experiment checks the streaming layer's three contracts:
//
//  1. Equivalence tripwire — on an in-order feed with zero allowed
//     lateness, event-time tumbling windows spanning exactly W items must
//     produce BIT-IDENTICAL decisions to W-item count windows. The two
//     windowing families share one decide path; this is the law that
//     keeps them honest.
//  2. Out-of-order handling — a feed with one straggler held back past
//     the watermark must produce a superseding late re-emission that
//     carries the straggler's decision and the q:Supersedes key of the
//     emission it revises.
//  3. Drift alerting — an injected quality degradation (every item weak
//     from a chosen index on) must raise a drift alert within a bounded
//     number of windows of the injection.

// The full-size feed: etItems items spaced etSpacing apart in event
// time, windows of etWindow items.
const (
	etItems   = 64
	etWindow  = 8
	etSpacing = 10 * time.Millisecond
)

// etMaxDriftLag is the acceptance bound: a collapse of the accept rate
// must be flagged within this many windows of the injection.
const etMaxDriftLag = 6

func etItemIRI(i int) evidence.Item {
	return rdf.IRI(fmt.Sprintf("urn:lsid:qurator.org:et:%d", i))
}

func etItemIndex(it evidence.Item) int {
	s := it.Value()
	n, err := strconv.Atoi(s[strings.LastIndex(s, ":")+1:])
	if err != nil {
		panic(err)
	}
	return n
}

// etCompile builds the paper view over a deterministic identity
// annotator: evidence is a pure function of the item index, so two
// enactments of the same item always decide identically — the ground the
// equivalence tripwire stands on. Items for which weak(i) holds get
// evidence the view's filter rejects.
func etCompile(weak func(i int) bool) (*compiler.Compiled, error) {
	model := ontology.NewIQModel()
	repos := annotstore.NewRegistry()
	local := services.NewRegistry()
	local.Add(&services.AnnotatorService{
		ServiceName: "ImprintOutputAnnotator",
		Annotator: ops.AnnotatorFunc{
			ClassIRI: ontology.ImprintOutputAnnotation,
			Types: []rdf.Term{
				ontology.HitRatio, ontology.Coverage, ontology.Masses, ontology.PeptidesCount,
			},
			Fn: func(items []evidence.Item, repo annotstore.Store) error {
				for _, it := range items {
					i := etItemIndex(it)
					hr, mc := 0.9, 0.8
					if weak(i) {
						hr, mc = 0.15, 0.1
					}
					puts := []annotstore.Annotation{
						{Item: it, Type: ontology.HitRatio, Value: evidence.Float(hr)},
						{Item: it, Type: ontology.Coverage, Value: evidence.Float(mc)},
						{Item: it, Type: ontology.Masses, Value: evidence.Int(int64(10 + i%7))},
						{Item: it, Type: ontology.PeptidesCount, Value: evidence.Int(8)},
					}
					for _, a := range puts {
						a.Source = ontology.ImprintOutputAnnotation
						if err := repo.Put(a); err != nil {
							return err
						}
					}
				}
				return nil
			},
		},
		Repositories: repos,
	})
	local.Add(&services.AssertionService{
		ServiceName: "HR_MC_score",
		QA:          qa.NewUniversalPIScore(qvlang.TagKeyFor("HR_MC")),
	})
	local.Add(&services.AssertionService{
		ServiceName: "HR_score",
		QA:          qa.NewHRScore(qvlang.TagKeyFor("HR")),
	})
	local.Add(&services.AssertionService{
		ServiceName: "PIScoreClassifier",
		QA:          qa.NewPIScoreClassifier(),
	})
	bindings := binding.NewRegistry(model)
	bindings.MustBind(binding.Binding{Concept: ontology.ImprintOutputAnnotation, Kind: binding.ServiceResource, Locator: "local:ImprintOutputAnnotator"})
	bindings.MustBind(binding.Binding{Concept: ontology.UniversalPIScore2, Kind: binding.ServiceResource, Locator: "local:HR_MC_score"})
	bindings.MustBind(binding.Binding{Concept: ontology.HRScoreAssertion, Kind: binding.ServiceResource, Locator: "local:HR_score"})
	bindings.MustBind(binding.Binding{Concept: ontology.PIScoreClassifier, Kind: binding.ServiceResource, Locator: "local:PIScoreClassifier"})
	c := &compiler.Compiler{
		Bindings:     bindings,
		Resolver:     &binding.Resolver{Local: local},
		Repositories: repos,
	}
	v, err := qvlang.Parse([]byte(qvlang.PaperViewXML))
	if err != nil {
		return nil, err
	}
	r, err := qvlang.Resolve(v, model)
	if err != nil {
		return nil, err
	}
	return c.Compile(r)
}

// etStream enacts one stream to completion and returns its windows.
func etStream(weak func(i int) bool, cfg stream.Config, items []stream.Item) ([]stream.WindowResult, error) {
	c, err := etCompile(weak)
	if err != nil {
		return nil, err
	}
	e, err := stream.New(c, cfg)
	if err != nil {
		return nil, err
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult, 16)
	go func() {
		defer close(in)
		for _, it := range items {
			in <- it
		}
	}()
	var results []stream.WindowResult
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for res := range out {
			results = append(results, res)
		}
	}()
	err = e.Run(context.Background(), in, out)
	<-collected
	return results, err
}

// etFeed renders items 0..n-1 with event time i*spacing, in the given
// order (nil = in order).
func etFeed(n int, spacing time.Duration, order []int) []stream.Item {
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	items := make([]stream.Item, 0, len(order))
	for _, i := range order {
		items = append(items, stream.Item{
			ID: etItemIRI(i),
			Evidence: map[evidence.Key]evidence.Value{
				ontology.ObservedAt: evidence.Int(int64(i) * spacing.Milliseconds()),
			},
		})
	}
	return items
}

func measureEventTime(items, window int, spacing time.Duration) (*record, error) {
	weakOdd := func(i int) bool { return i%2 == 1 }
	rec := newRecord("eventtime", map[string]any{
		"items": items, "count_window": window, "spacing_ms": spacing.Milliseconds(),
	})

	// 1. Equivalence: count windows of W items vs event-time tumbling
	// windows of W*spacing, over the identical in-order feed.
	feed := etFeed(items, spacing, nil)
	countRes, err := etStream(weakOdd, stream.Config{Window: window}, feed)
	if err != nil {
		return nil, fmt.Errorf("eventtime: count stream: %w", err)
	}
	eventRes, err := etStream(weakOdd, stream.Config{
		EventTimeKey:   ontology.ObservedAt,
		WindowDuration: time.Duration(window) * spacing,
	}, feed)
	if err != nil {
		return nil, fmt.Errorf("eventtime: event stream: %w", err)
	}
	equivalent := len(countRes) == len(eventRes)
	for i := 0; equivalent && i < len(countRes); i++ {
		a, err := json.Marshal(countRes[i].Decisions)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(eventRes[i].Decisions)
		if err != nil {
			return nil, err
		}
		if string(a) != string(b) || countRes[i].Size != eventRes[i].Size {
			equivalent = false
		}
	}
	rec.metric("windows", "count", float64(len(countRes)), 1)
	rec.check("equivalent", equivalent, "%d count windows, %d event-time windows, decisions bit-identical",
		len(countRes), len(eventRes))

	// 2. Out-of-order: hold one early item back to the end of the feed.
	// Its window fires without it; the straggler must come back as a
	// superseding re-emission that decides it.
	const held = 3
	order := make([]int, 0, items)
	for i := 0; i < items; i++ {
		if i != held {
			order = append(order, i)
		}
	}
	order = append(order, held)
	lateRes, err := etStream(weakOdd, stream.Config{
		EventTimeKey:    ontology.ObservedAt,
		WindowDuration:  time.Duration(window) * spacing,
		AllowedLateness: time.Hour,
	}, etFeed(items, spacing, order))
	if err != nil {
		return nil, fmt.Errorf("eventtime: out-of-order stream: %w", err)
	}
	superseded, lateDecided := 0, false
	for _, res := range lateRes {
		if res.Late && res.Supersedes != "" {
			superseded++
			for _, d := range res.Decisions {
				if d.Item == etItemIRI(held).Value() {
					lateDecided = true
				}
			}
		}
	}
	rec.metric("superseded_emissions", "count", float64(superseded), 1)
	rec.check("straggler_superseded", superseded > 0 && lateDecided,
		"superseded=%d, straggler decided=%v", superseded, lateDecided)

	// 3. Drift: healthy windows, then every item weak — the accept rate
	// collapses from 50% to 0 and the detector must flag it promptly.
	injectAt := 2 * 8 // windows of healthy baseline (2x the warm-up)
	degradeFrom := injectAt * window
	driftItems := 2 * degradeFrom
	alertWindow := -1
	driftCfg := stream.Config{
		EventTimeKey:   ontology.ObservedAt,
		WindowDuration: time.Duration(window) * spacing,
		Drift: &stream.DriftConfig{
			// The injected degradation collapses the accept rate; evidence
			// means wobble window-to-window by construction (Masses cycles
			// with period 7 against 8-item windows), so only the accept-rate
			// track is the experiment's signal.
			OnAlert: func(a stream.Alert) {
				if a.Metric == stream.AcceptRateMetric && alertWindow < 0 {
					alertWindow = a.Window
				}
			},
		},
	}
	weakDegraded := func(i int) bool { return i%2 == 1 || i >= degradeFrom }
	if _, err := etStream(weakDegraded, driftCfg, etFeed(driftItems, spacing, nil)); err != nil {
		return nil, fmt.Errorf("eventtime: drift stream: %w", err)
	}
	alerted := alertWindow >= 0
	lag := 0
	if alerted {
		lag = alertWindow - injectAt
	}
	rec.metric("drift/injected_at_window", "window", float64(injectAt), 1)
	rec.metric("drift/alert_window", "window", float64(alertWindow), 1)
	rec.metric("drift/lag_windows", "windows", float64(lag), 1)
	rec.check("drift_alert", alerted && lag <= etMaxDriftLag,
		"alerted=%v at window %d, lag %d, max %d", alerted, alertWindow, lag, etMaxDriftLag)
	rec.Registry = telemetry.Default.Snapshot()
	return rec, nil
}

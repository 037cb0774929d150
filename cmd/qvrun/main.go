// Command qvrun executes a quality view against a data set supplied as a
// CSV file of inline evidence, or — with -stream — continuously against
// an unbounded NDJSON item stream on stdin. It is the fastest way to
// observe a view's effect on real data without writing an annotator.
//
// Usage:
//
//	qvrun -view view.xml -data items.csv [-condition "expr"]
//	qvrun -stream [-view view.xml] [-window 64] [-slide n] [-parallelism p] [-skip-failed] < items.ndjson
//
// With -data-dir the "default" annotation repository and the provenance
// log persist in that directory across invocations: long-lived evidence
// written by one run is readable by the next, and run provenance
// accumulates. -fsync picks the WAL durability policy (always, interval,
// never).
//
// Resilience flags (both modes): -retries N re-invokes a failed quality
// service, -proc-timeout bounds each invocation, and -degraded selects
// what happens when a service stays down — "fail-closed" rejects the
// affected items, "fail-open" accepts them, "quarantine" parks them on a
// dedicated output, and "off" (default) aborts the run.
//
// With -scavenge URL the view is enacted through a remote quratord's
// services and annotation repositories instead of the local standard
// library — every annotation write, enrichment read and QA invocation
// then crosses HTTP through the resilient client.
//
// The CSV's first column is the item URI; the header names the remaining
// columns with evidence q-names (e.g. q:HitRatio). Values parse as
// numbers when possible, strings otherwise. -condition overrides the
// first filter action's condition before running — the paper's
// explore-by-editing loop from the command line.
//
// In -stream mode each stdin line is one item ({"item": uri, "evidence":
// {...}}); decisions are written as NDJSON the moment their window
// resolves, so qvrun composes with pipes over live feeds.
//
// -telemetry dumps the enactment's span tree(s) and a metrics snapshot
// as one JSON document on stderr after the run, keeping stdout clean for
// the data results. The root trace ID in the dump matches the q:traceID
// recorded in the run's RDF provenance.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"qurator"
	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/qvlang"
	"qurator/internal/stream"
	"qurator/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so exit codes and
// usage behaviour are testable.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qvrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	viewPath := fs.String("view", "", "quality-view XML file (default: the paper's §5.1 view)")
	dataPath := fs.String("data", "", "CSV data set: item URI column + evidence columns (required unless -stream)")
	override := fs.String("condition", "", "override the first filter action's condition")
	streaming := fs.Bool("stream", false, "read NDJSON items from stdin and enact continuously")
	window := fs.Int("window", 64, "streaming: count-based window size")
	slide := fs.Int("slide", 0, "streaming: items per window fire (default: window, i.e. tumbling)")
	parallelism := fs.Int("parallelism", 1, "streaming: concurrent window enactments")
	skipFailed := fs.Bool("skip-failed", false, "streaming: report failed windows and keep going instead of stopping")
	scavenge := fs.String("scavenge", "", "base URL of a remote Qurator host: enact through its services and repositories instead of the local standard library")
	retries := fs.Int("retries", 0, "re-invoke a failed quality service up to N times (0 = off)")
	retryBackoff := fs.Duration("retry-backoff", 50*time.Millisecond, "initial sleep between service retries")
	procTimeout := fs.Duration("proc-timeout", 0, "per-service invocation deadline (0 = none)")
	degraded := fs.String("degraded", "off", "on service failure: off (abort), fail-closed, fail-open, or quarantine")
	shardSize := fs.Int("shard-size", 0, "split item-scoped service invocations into shards of at most N items, invoked concurrently (0 = serial)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent shard invocations per processor (0 = GOMAXPROCS)")
	useCache := fs.Bool("cache", false, "memoise pure service responses (QAs, filter/split) content-addressed across runs and windows")
	cacheEntries := fs.Int("cache-entries", 0, "response-cache LRU bound (0 = 4096)")
	cacheTTL := fs.Duration("cache-ttl", 0, "response-cache entry expiry (0 = none)")
	withTelemetry := fs.Bool("telemetry", false, "dump span tree + metrics snapshot as JSON on stderr after the run")
	dataDir := fs.String("data-dir", "", "persist annotations and provenance in this directory across runs (empty = memory only)")
	fsyncPolicy := fs.String("fsync", "interval", "WAL durability with -data-dir: always, interval or never")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "qvrun:", err)
		fs.Usage()
		return 2
	}

	if !*streaming && *dataPath == "" {
		return usage(fmt.Errorf("-data is required (or use -stream)"))
	}
	src := []byte(qurator.PaperViewXML)
	if *viewPath != "" {
		var err error
		src, err = os.ReadFile(*viewPath)
		if err != nil {
			return usage(fmt.Errorf("view file: %w", err))
		}
	}

	mode, err := qurator.ParseDegradedMode(*degraded)
	if err != nil {
		return usage(err)
	}

	f := qurator.New()
	if *dataDir != "" {
		// Durable metadata plane: evidence computed by one run (e.g.
		// curation credibility) is already in the repository for the
		// next, and every run's provenance accumulates queryably.
		if err := f.EnablePersistence(qurator.Persistence{Dir: *dataDir, Fsync: *fsyncPolicy}); err != nil {
			return fail(stderr, err)
		}
		defer func() {
			if err := f.CloseMetadata(); err != nil {
				fmt.Fprintln(stderr, "qvrun: closing metadata stores:", err)
			}
		}()
	}
	if *scavenge == "" {
		if err := f.DeployStandardLibrary(); err != nil {
			return fail(stderr, err)
		}
	}
	if *retries > 0 || *procTimeout > 0 || mode != qurator.DegradeOff {
		f.SetResilience(qurator.Resilience{
			RetryAttempts:    *retries + 1, // N retries = N+1 attempts
			RetryBackoff:     *retryBackoff,
			ProcessorTimeout: *procTimeout,
			Degraded:         mode,
		})
	}
	if *shardSize > 0 || *useCache {
		f.SetDataPlane(qurator.DataPlane{
			ShardSize:    *shardSize,
			MaxInflight:  *maxInflight,
			Cache:        *useCache,
			CacheEntries: *cacheEntries,
			CacheTTL:     *cacheTTL,
		})
	}
	if *scavenge != "" {
		// Resilience is installed above, so the scavenged proxies get the
		// retrying, breaker-guarded HTTP client.
		if _, err := f.Scavenge(context.Background(), *scavenge); err != nil {
			return fail(stderr, fmt.Errorf("scavenge %s: %w", *scavenge, err))
		}
		if _, err := f.ScavengeRepositories(context.Background(), *scavenge); err != nil {
			return fail(stderr, fmt.Errorf("scavenge repositories %s: %w", *scavenge, err))
		}
	}

	// A private recorder keeps the dump scoped to exactly this run's
	// traces (the metrics snapshot is process-wide by design).
	ctx := context.Background()
	var recorder *telemetry.Recorder
	if *withTelemetry {
		recorder = telemetry.NewRecorder(64)
		ctx = telemetry.WithRecorder(ctx, recorder)
	}

	if *streaming {
		code := runStream(ctx, f, src, stream.Config{
			Window:            *window,
			Slide:             *slide,
			Parallelism:       *parallelism,
			SkipFailedWindows: *skipFailed,
		}, *override, stdin, stdout, stderr)
		if recorder != nil {
			dumpTelemetry(stderr, recorder)
		}
		return code
	}

	items, err := loadCSV(f, *dataPath)
	if err != nil {
		if os.IsNotExist(err) {
			return usage(fmt.Errorf("data file: %w", err))
		}
		return fail(stderr, err)
	}

	// The CSV already materialises the evidence, so annotator classes in
	// the view resolve to no-ops.
	resolved, err := resolveView(f, src)
	if err != nil {
		return fail(stderr, err)
	}
	for _, ann := range resolved.Annotators {
		stubName := "csv-preloaded:" + ann.Decl.ServiceName
		if err := f.DeployAnnotator(stubName, noopAnnotator{class: ann.Type}); err != nil {
			return fail(stderr, err)
		}
	}

	compiled, err := f.CompileView(src)
	if err != nil {
		return fail(stderr, err)
	}
	if *override != "" {
		if len(resolved.Actions) == 0 || resolved.Actions[0].Filter == nil {
			return fail(stderr, fmt.Errorf("view has no filter action to override"))
		}
		if err := compiled.SetFilterCondition(resolved.Actions[0].Name, *override); err != nil {
			return fail(stderr, err)
		}
	}

	out, err := compiled.Run(ctx, items)
	if recorder != nil {
		dumpTelemetry(stderr, recorder)
	}
	if err != nil {
		return fail(stderr, err)
	}
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out[name]
		fmt.Fprintf(stdout, "output %s: %d of %d items\n", name, m.Len(), len(items))
		for _, it := range m.Items() {
			fmt.Fprintf(stdout, "  %s\n", it.Value())
		}
	}
	return 0
}

// dumpTelemetry writes the run's span trees plus a process metrics
// snapshot as one JSON document.
func dumpTelemetry(stderr io.Writer, rec *telemetry.Recorder) {
	enc := json.NewEncoder(stderr)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Traces  []telemetry.TraceTree      `json:"traces"`
		Metrics []telemetry.MetricSnapshot `json:"metrics"`
	}{rec.Traces(0), telemetry.Default.Snapshot()})
}

// runStream enacts the view continuously over an NDJSON item stream:
// stdin lines in, decision lines out, window by window.
func runStream(ctx context.Context, f *qurator.Framework, viewXML []byte, cfg stream.Config, override string, stdin io.Reader, stdout, stderr io.Writer) int {
	compiled, err := f.CompileViewForStream(viewXML)
	if err != nil {
		return fail(stderr, err)
	}
	if override != "" {
		resolved, err := resolveView(f, viewXML)
		if err != nil {
			return fail(stderr, err)
		}
		if len(resolved.Actions) == 0 || resolved.Actions[0].Filter == nil {
			return fail(stderr, fmt.Errorf("view has no filter action to override"))
		}
		if err := compiled.SetFilterCondition(resolved.Actions[0].Name, override); err != nil {
			return fail(stderr, err)
		}
	}
	enactor, err := stream.New(compiled, cfg)
	if err != nil {
		return fail(stderr, err)
	}

	par := enactor.Config().Parallelism
	in := make(chan stream.Item, par)
	results := make(chan stream.WindowResult, par)
	readErr := make(chan error, 1)
	go func() { readErr <- stream.ReadItems(stdin, in) }()
	runErr := make(chan error, 1)
	go func() { runErr <- enactor.Run(ctx, in, results) }()

	writeError := stream.WriteResults(stdout, results, nil)
	code := 0
	if err := <-runErr; err != nil {
		code = fail(stderr, err)
	}
	go func() { // unblock the reader if the pipeline stopped early
		for range in {
		}
	}()
	if err := <-readErr; err != nil && code == 0 {
		code = fail(stderr, err)
	}
	if writeError != nil && code == 0 {
		code = fail(stderr, writeError)
	}
	return code
}

func resolveView(f *qurator.Framework, src []byte) (*qvlang.Resolved, error) {
	view, err := qvlang.Parse(src)
	if err != nil {
		return nil, err
	}
	return qvlang.Resolve(view, f.Model)
}

type noopAnnotator struct{ class evidence.Key }

func (a noopAnnotator) Class() evidence.Key      { return a.class }
func (a noopAnnotator) Provides() []evidence.Key { return nil }
func (a noopAnnotator) Annotate([]evidence.Item, annotstore.Store) error {
	return nil
}

// loadCSV reads the data set and preloads the cache repository with the
// inline evidence.
func loadCSV(f *qurator.Framework, path string) ([]qurator.Item, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	rows, err := csv.NewReader(file).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("qvrun: CSV needs a header and at least one row")
	}
	header := rows[0]
	if len(header) < 2 {
		return nil, fmt.Errorf("qvrun: CSV needs an item column plus evidence columns")
	}
	cache, ok := f.Repository("cache")
	if !ok {
		return nil, fmt.Errorf("qvrun: framework has no cache repository")
	}
	var items []qurator.Item
	for lineNo, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("qvrun: row %d has %d fields, want %d", lineNo+2, len(row), len(header))
		}
		item := qurator.NewItem(row[0])
		items = append(items, item)
		for col := 1; col < len(row); col++ {
			if row[col] == "" {
				continue
			}
			var v evidence.Value
			if num, err := strconv.ParseFloat(row[col], 64); err == nil {
				v = evidence.Float(num)
			} else {
				v = evidence.String_(row[col])
			}
			a := qurator.Annotation{
				Item:  item,
				Type:  ontology.ExpandQName(header[col]),
				Value: v,
			}
			if err := cache.Put(a); err != nil {
				return nil, fmt.Errorf("qvrun: row %d column %q: %w", lineNo+2, header[col], err)
			}
		}
	}
	return items, nil
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "qvrun:", err)
	return 1
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"qurator/internal/telemetry"
)

// metric is one reported number with its unit and sample count.
// Unbounded metrics are printed and recorded but left out of the result
// line: their run-to-run spread is wider than any bound the benchmark
// could hold them to (see README).
type metric struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	Value     float64 `json:"value"`
	Samples   int     `json:"samples"`
	Unbounded bool    `json:"unbounded,omitempty"`
}

// runRecord is the one record schema of every workload, traced or not.
// The last line the benchmark prints is its compact result; the record
// line before it and the file under .bench_build/records carry the rest.
type runRecord struct {
	Schema       string         `json:"schema"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Traced       bool           `json:"traced"`
	GitRevision  string         `json:"git_revision"`
	SourceSHA256 string         `json:"source_sha256"`
	GoVersion    string         `json:"go_version"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NProc        int            `json:"nproc"`
	DataFS       string         `json:"data_fs"`
	Params       map[string]any `json:"params"`
	SetupsS      []float64      `json:"setups_s"`
	OpsAttempted int            `json:"ops_attempted"`
	OpsFailed    int            `json:"ops_failed"`
	Valid        bool           `json:"valid"`
	Correct      bool           `json:"correct"`
	Problems     []string       `json:"problems,omitempty"`
	Metrics      []metric       `json:"metrics"`
	Unreached    []string       `json:"unreached,omitempty"`
}

func newRecord(o *options, p *pass) *runRecord {
	rev, digest := sourceIdentity()
	r := &runRecord{
		Schema: "perfbench/run/v1", Workload: o.w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		GitRevision: rev, SourceSHA256: digest, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), DataFS: p.dataFS,
		Params: o.w.record(), SetupsS: p.setups,
		OpsAttempted: p.attempted, OpsFailed: p.failed, Problems: p.problems,
	}
	lag := p.genLags()
	r.Valid = quantile(lag, 0.99) <= genLagBoundMs
	if !r.Valid {
		r.Problems = append(r.Problems, fmt.Sprintf("generator lag p99 %.2fms exceeds %dms: schedule not held",
			quantile(lag, 0.99), genLagBoundMs))
	}
	// Correct is about the outputs; a run whose generator fell behind is
	// marked invalid in the record and printed as such, not miscounted
	// as a wrong answer.
	r.Correct = r.OpsFailed == 0
	return r
}

// endToEnd derives the metrics a user of /stream/enact sees, from an
// untraced pass.
func endToEnd(o *options, p *pass) []metric {
	w := o.w
	lat := p.decisionLatencies(w)
	ips, items := p.itemsPerSecond()
	ms := []metric{
		{Name: "setup_s", Unit: "s", Value: median(p.setups), Samples: len(p.setups)},
		{Name: "items_per_s", Unit: "items/s", Value: ips, Samples: items},
		{Name: "decision_p50_ms", Unit: "ms", Value: quantile(lat, 0.50), Samples: len(lat)},
		{Name: "decision_p90_ms", Unit: "ms", Value: quantile(lat, 0.90), Samples: len(lat), Unbounded: true},
		{Name: "decision_p99_ms", Unit: "ms", Value: quantile(lat, 0.99), Samples: len(lat), Unbounded: true},
		{Name: "peak_rss_mb", Unit: "MiB", Value: p.peakRSSKiB / 1024, Samples: 1},
	}
	if w.queryRate > 0 {
		var ql []float64
		for _, q := range p.queries {
			ql = append(ql, q.latencyMs)
		}
		ms = append(ms,
			metric{Name: "query_p50_ms", Unit: "ms", Value: quantile(ql, 0.50), Samples: len(ql), Unbounded: true},
			metric{Name: "query_p99_ms", Unit: "ms", Value: quantile(ql, 0.99), Samples: len(ql), Unbounded: true})
	}
	return ms
}

// histDelta sums a histogram family's series in report b and subtracts
// the same sum in the earlier report a.
func histDelta(a, b *sutReport, name string) ([]telemetry.BucketCount, uint64, float64) {
	var buckets []telemetry.BucketCount
	var count uint64
	var sum float64
	for sign, rep := range []*sutReport{b, a} {
		for _, m := range rep.Registry {
			if m.Name != name {
				continue
			}
			for _, s := range m.Series {
				if buckets == nil {
					buckets = make([]telemetry.BucketCount, len(s.Buckets))
					for i, bc := range s.Buckets {
						buckets[i].UpperBound = bc.UpperBound
					}
				}
				for i, bc := range s.Buckets {
					if sign == 0 {
						buckets[i].Count += bc.Count
					} else {
						buckets[i].Count -= bc.Count
					}
				}
				if sign == 0 {
					count += s.Count
					sum += s.Sum
				} else {
					count -= s.Count
					sum -= s.Sum
				}
			}
		}
	}
	return buckets, count, sum
}

// seriesSum sums a counter or gauge family, keeping series whose label
// key has the given value (any when key is empty).
func seriesSum(rep *sutReport, name, key, value string) float64 {
	v := 0.0
	for _, m := range rep.Registry {
		if m.Name != name {
			continue
		}
		for _, s := range m.Series {
			if key == "" || s.Labels[key] == value {
				v += s.Value
			}
		}
	}
	return v
}

// perLayer derives the per-layer metrics of a traced pass. Throughput
// layers (busy time per item, allocation, GC share) come from the
// saturation phase, latency layers from the open-loop phase, counts from
// the whole measured run. base is the untraced pass run just before, for
// the tracing overhead.
func perLayer(o *options, base, tr *pass) ([]metric, []string) {
	r0, r1, r2 := tr.reports[0], tr.reports[1], tr.reports[2]
	open, sat := r1.Layers, r2.Layers
	ips, satItems := tr.itemsPerSecond()
	baseIPS, _ := base.itemsPerSecond()
	items := float64(max(satItems, 1))
	satWindows := 0
	for _, sr := range tr.phaseStreams("sat") {
		satWindows += len(expected(o.w, sr.sched, sr.nOps))
	}

	var ms []metric
	add := func(name, unit string, v float64, n int) {
		ms = append(ms, metric{Name: name, Unit: unit, Value: v, Samples: n})
	}
	both := func(counter string) (float64, int) {
		v := float64(open.Counts[counter] + sat.Counts[counter])
		return v, int(v)
	}
	hq := func(a, b *sutReport, fam string, q, scale float64) (float64, int) {
		bk, n, _ := histDelta(a, b, fam)
		return histQuantile(bk, n, q) * scale, int(n)
	}

	add("stream.handler.self_us_per_item", "us", float64(sat.HandlerSelfNs)/1e3/items, sat.Dists["stream.handler"].N)
	v, n := hq(r0, r1, "qurator_stream_window_duration_seconds", 0.5, 1e3)
	add("stream.window.enact_ms.p50", "ms", v, n)
	v, n = hq(r0, r1, "qurator_stream_window_duration_seconds", 0.99, 1e3)
	add("stream.window.enact_ms.p99", "ms", v, n)
	v, n = hq(r0, r1, "qurator_stream_window_lag_seconds", 0.99, 1e3)
	add("stream.window.lag_ms.p99", "ms", v, n)
	add("stream.queue_depth.max", "windows", open.QueueMax, 1)
	for _, outcome := range []string{"superseded", "dropped"} {
		c := seriesSum(r2, "qurator_stream_late_items_total", "outcome", outcome) -
			seriesSum(r0, "qurator_stream_late_items_total", "outcome", outcome)
		add("stream.late."+outcome, "count", c, int(c))
	}
	_, wn, wsum := histDelta(r1, r2, "qurator_processor_duration_seconds")
	wf := wsum * 1e6 / items
	qa, ann := sat.Dists["qa"], sat.Dists["annotator"]
	add("workflow.busy_us_per_item", "us", wf, int(wn))
	add("qa.busy_us_per_item", "us", qa.Sum/items, qa.N)
	add("services.envelope_us_per_item", "us", wf-qa.Sum/items-ann.Sum/items, int(wn))
	saved := seriesSum(r2, "qurator_mqo_invocations_saved_total", "", "") - seriesSum(r1, "qurator_mqo_invocations_saved_total", "", "")
	add("mqo.invocations_saved_per_window", "count", saved/float64(max(satWindows, 1)), satWindows)
	add("annotator.busy_us_per_item", "us", ann.Sum/items, ann.N)
	put := open.Dists["annotstore.put"]
	add("annotstore.put_us.p50", "us", put.P50, put.N)
	add("annotstore.puts", "count", float64(put.N+sat.Dists["annotstore.put"].N), put.N+sat.Dists["annotstore.put"].N)
	cube := open.Dists["qcube.slice"]
	add("qcube.slice_us.p50", "us", cube.P50, cube.N)
	add("qcube.slice_us.p99", "us", cube.P99, cube.N)
	add("provenance.runs", "count", float64(r2.ProvRuns), 1)
	add("provenance.triples", "count", float64(r2.ProvTriples), 1)
	v, n = hq(r0, r1, "qurator_mstore_wal_append_seconds", 0.5, 1e6)
	add("mstore.wal_append_us.p50", "us", v, n)
	v, n = hq(r0, r1, "qurator_mstore_wal_append_seconds", 0.99, 1e6)
	add("mstore.wal_append_us.p99", "us", v, n)
	c := seriesSum(r2, "qurator_mstore_wal_batches_total", "", "") - seriesSum(r0, "qurator_mstore_wal_batches_total", "", "")
	add("mstore.wal_batches", "count", c, int(c))
	add("mstore.wal_bytes", "bytes", seriesSum(r2, "qurator_mstore_wal_bytes", "", ""), 1)
	c = seriesSum(r2, "qurator_mstore_compactions_total", "", "") - seriesSum(r0, "qurator_mstore_compactions_total", "", "")
	add("mstore.compactions", "count", c, int(c))
	v, n = hq(r0, r1, "qurator_mstore_fsync_seconds", 0.99, 1e6)
	add("mstore.fsync_us.p99", "us", v, n)
	add("mstore.recovery_s", "s", seriesSum(r0, "qurator_mstore_recovery_seconds", "", ""), 1)
	add("mstore.recovered_wal_ops", "count", seriesSum(r0, "qurator_mstore_recovered_wal_ops", "", ""), 1)
	for _, l := range []string{"lookup", "commit"} {
		d := open.Dists["cluster.journal."+l]
		add("cluster.journal."+l+"_us.p50", "us", d.P50, d.N)
		add("cluster.journal."+l+"_us.p99", "us", d.P99, d.N)
	}
	rep := open.Dists["cluster.replicate"]
	add("cluster.replicate_us.p50", "us", rep.P50, rep.N)
	add("cluster.replicate_us.p99", "us", rep.P99, rep.N)
	for _, k := range []string{"requests", "bytes", "failed"} {
		unit := "count"
		if k == "bytes" {
			unit = "bytes"
		}
		v, n := both("cluster.replicate." + k)
		add("cluster.replicate."+k, unit, v, n)
	}
	ab := open.Dists["cluster.absorb"]
	add("cluster.absorb_us.p50", "us", ab.P50, ab.N)
	fb := open.Dists["cluster.forward.first_byte"]
	add("cluster.forward.first_byte_ms.p50", "ms", fb.P50/1e3, fb.N)
	v, n = both("cluster.forward.bytes")
	add("cluster.forward.bytes", "bytes", v, n)
	c = seriesSum(r2, "qurator_admission_shed_total", "", "") - seriesSum(r0, "qurator_admission_shed_total", "", "")
	add("cluster.admission.shed", "count", c, int(c))
	v, n = both("cluster.heartbeats")
	add("cluster.heartbeats", "count", v, n)
	ex := open.Dists["query.exec"]
	add("query.exec_us.p50", "us", ex.P50, ex.N)
	add("query.exec_us.p99", "us", ex.P99, ex.N)
	qh := open.Dists["query.http"]
	add("query.http_us.p50", "us", qh.P50, qh.N)
	add("query.http_us.p99", "us", qh.P99, qh.N)
	add("query.rows", "count", float64(open.Counts["query.rows"]), qh.N)
	cpu := r2.Runtime.TotalCPUSeconds - r1.Runtime.TotalCPUSeconds
	gc := r2.Runtime.GCCPUSeconds - r1.Runtime.GCCPUSeconds
	add("runtime.gc_cpu_frac", "fraction", gc/max(cpu, 1e-9), 1)
	pq, pn := pauseQuantile(r0.Runtime, r2.Runtime, 0.99)
	add("runtime.gc_pause_us.p99", "us", pq*1e6, pn)
	add("runtime.alloc_bytes_per_item", "bytes", float64(r2.Runtime.AllocBytes-r1.Runtime.AllocBytes)/items, satItems)
	add("runtime.heap_peak_mb", "MiB", max(open.HeapMaxBytes, sat.HeapMaxBytes)/(1<<20), 1)
	lag := tr.genLags()
	add("bench.gen_lag_ms.p99", "ms", quantile(lag, 0.99), len(lag))
	add("bench.trace_overhead_frac", "fraction", 1-ips/max(baseIPS, 1e-9), 2)
	var client []interval
	for _, sr := range tr.streams {
		if sr.phase != "warm" {
			client = append(client, sr.resp.span)
		}
	}
	for _, q := range tr.queries {
		client = append(client, q.span)
	}
	var total int64
	for _, s := range client {
		total += s.len()
	}
	server := append(append([]interval(nil), open.Server...), sat.Server...)
	un := float64(uncovered(client, server)) / float64(max(total, 1))
	add("bench.unattributed_frac", "fraction", un, len(client))

	var unreached []string
	for _, m := range ms {
		if m.Samples == 0 {
			unreached = append(unreached, fmt.Sprintf("%s: %s", m.Name, unreachedWhy(o.w, m.Name)))
		}
	}
	return ms, unreached
}

// unreachedWhy says why a per-layer metric has no samples on a workload.
func unreachedWhy(w *workload, name string) string {
	switch {
	case strings.HasPrefix(name, "cluster.admission"):
		return "nothing was shed (the admission limits are never reached)"
	case strings.HasPrefix(name, "cluster.replicate.failed"):
		return "no replication failed"
	case strings.HasPrefix(name, "cluster.") && w.nodes == 1:
		return "single node: no fleet, journal, replication or forwarding"
	case strings.HasPrefix(name, "mstore.") && !w.durable:
		return "memory-only metadata: no WAL"
	case strings.HasPrefix(name, "mstore.compactions"):
		return "no segment compaction ran during the run"
	case strings.HasPrefix(name, "mstore.recover"):
		return "fresh data directory: nothing to recover"
	case (strings.HasPrefix(name, "annotator") || strings.HasPrefix(name, "annotstore")) && !w.demoAnnotator:
		return "evidence arrives inline: no annotator runs"
	case (strings.HasPrefix(name, "query") || strings.HasPrefix(name, "qcube")) && w.queryRate == 0:
		return "no query traffic on this workload"
	case strings.HasPrefix(name, "mqo") && len(w.views) == 1:
		return "a single view: nothing is shared"
	case strings.HasPrefix(name, "stream.late") && w.event == nil:
		return "count windows: no late data"
	case strings.HasPrefix(name, "stream.late.dropped"):
		return "every late item fell within the allowed lateness"
	}
	return "no samples in this run"
}

// pauseQuantile estimates a quantile of the GC pauses between two
// runtime samples from the runtime's pause histogram.
func pauseQuantile(a, b runtimeSample, q float64) (float64, int) {
	if len(b.PauseCounts) == 0 || len(a.PauseCounts) != len(b.PauseCounts) {
		return 0, 0
	}
	var total uint64
	d := make([]uint64, len(b.PauseCounts))
	for i := range d {
		d[i] = b.PauseCounts[i] - a.PauseCounts[i]
		total += d[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank, cum := q*float64(total), uint64(0)
	for i, c := range d {
		cum += c
		if float64(cum) >= rank {
			return b.PauseBuckets[i+1], int(total)
		}
	}
	return b.PauseBuckets[len(b.PauseBuckets)-1], int(total)
}

// sourceIdentity names the code measured: the git revision when the
// tree is a git checkout (read from .git without running git), and a
// digest of every Go source and module file, which identifies a checkout
// that is not one.
func sourceIdentity() (rev, digest string) {
	rev = "unknown"
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				h = strings.TrimSpace(string(b))
			}
		}
		rev = h
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return rev, hex.EncodeToString(h.Sum(nil))
}

// emit prints the human-readable metric table, the full record and,
// last, the result line, and files the record under .bench_build.
func (r *runRecord) emit() error {
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d nproc=%d fs=%s rev=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.GoVersion, r.GOMAXPROCS, r.NProc, r.DataFS, r.GitRevision)
	for _, m := range r.Metrics {
		note := ""
		if m.Unbounded {
			note = " (unbounded)"
		}
		if strings.HasSuffix(m.Name, "p99_ms") && !tailSupported(m.Samples, 0.99) {
			note += " (unsupported: fewer than 10 samples beyond p99)"
		}
		fmt.Printf("  %-40s %14.4f %-9s n=%d%s\n", m.Name, m.Value, m.Unit, m.Samples, note)
	}
	fmt.Printf("  %-40s %14d\n  %-40s %14d\n", "ops_attempted", r.OpsAttempted, "ops_failed", r.OpsFailed)
	for _, u := range r.Unreached {
		fmt.Printf("  unreached %s\n", u)
	}
	if r.Traced {
		for _, m := range r.Metrics {
			if m.Name == "bench.unattributed_frac" {
				verdict := "within"
				if m.Value > 0.10 {
					verdict = "OUTSIDE"
				}
				fmt.Printf("  unattributed %.4f of request time: %s the 10%% budget\n", m.Value, verdict)
			}
		}
	}
	for _, p := range r.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench-record %s\n", b)
	dir := filepath.Join(".bench_build", "records")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		_ = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", r.Workload, r.Seed, r.Traced)), b, 0o644)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.OpsAttempted, r.OpsFailed, map[string]value{}}
	for _, m := range r.Metrics {
		if !m.Unbounded {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	b, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

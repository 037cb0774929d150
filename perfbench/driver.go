package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	// setups is how many times an untraced run starts the SUT; setup_s
	// is their median.
	setups = 3
	// warmOps is how many operations each stream sends, unmeasured,
	// before timing starts.
	warmOps = 256
	// satQueueBytes bounds the saturation phase's unsent body: the
	// generator writes only as fast as the SUT's backpressure lets it.
	satQueueBytes = 64 << 10
	// genLagBoundMs is the validity bound on bench.gen_lag_ms.p99: a
	// generator later than this did not hold its schedule.
	genLagBoundMs = 20
	// oracleSample is how many windows per stream the batch oracle
	// re-decides.
	oracleSample = 24
)

type options struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	exe     string
	root    string
}

func runBench(args []string) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "measured seconds per pass")
	trace := fl.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 2 and --trace 0|1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	o := &options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, exe: exe,
		root: filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))}
	if err := os.MkdirAll(o.root, 0o755); err != nil {
		return err
	}
	// Every run ends within 170s, and an interrupted run stops its SUT.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	var rec *runRecord
	if !o.trace {
		p, err := runPass(ctx, o, false, setups)
		if err != nil {
			return err
		}
		rec = newRecord(o, p)
		rec.Metrics = endToEnd(o, p)
	} else {
		base, err := runPass(ctx, o, false, 1)
		if err != nil {
			return err
		}
		tr, err := runPass(ctx, o, true, 1)
		if err != nil {
			return err
		}
		rec = newRecord(o, tr)
		rec.Metrics, rec.Unreached = perLayer(o, base, tr)
	}
	// A failed run keeps its directory (and the SUT logs in it).
	os.RemoveAll(o.root)
	return rec.emit()
}

// streamRun is one stream request of one phase.
type streamRun struct {
	k     int
	phase string
	sched *schedule
	nOps  int
	start time.Time
	resp  *response
	lags  []float64
	check *streamCheck
	obs   []obsWindow
}

// pass is one SUT lifetime: set-ups, warm-up, the open-loop phase and
// the saturation phase, with reports taken between phases.
type pass struct {
	w          *workload
	setups     []float64
	dataFS     string
	streams    []*streamRun
	queries    []queryResult
	reports    []*sutReport // after warm-up, after open loop, after saturation
	peakRSSKiB float64
	openSecs   float64
	attempted  int
	failed     int
	problems   []string
}

func runPass(ctx context.Context, o *options, traced bool, nSetups int) (*pass, error) {
	w := o.w
	p := &pass{w: w}
	p.openSecs = float64(o.seconds) * openShare
	tag := "base"
	if traced {
		tag = "traced"
	}
	var (
		prepopDir   string
		prepopRuns  int
		prepopItems []itemDef
	)
	if w.prepopulate > 0 {
		var err error
		prepopDir = filepath.Join(o.root, tag+"-prepop")
		if prepopRuns, prepopItems, err = prepopulate(ctx, o, prepopDir); err != nil {
			return nil, fmt.Errorf("prepopulate: %w", err)
		}
	}
	var sut *sutProc
	for k := 0; k < nSetups; k++ {
		dir := filepath.Join(o.root, fmt.Sprintf("%s-sut%d", tag, k))
		var err error
		if prepopDir != "" {
			err = copyDir(prepopDir, dir)
		} else {
			err = os.MkdirAll(dir, 0o755)
		}
		if err != nil {
			return nil, err
		}
		sp, secs, err := startSUT(o.exe, w, dir, traced)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, secs)
		progress("%s set-up %d: %.3fs", tag, k, secs)
		p.dataFS = fsType(dir)
		if k < nSetups-1 {
			if err := sp.stop(); err != nil {
				return nil, err
			}
			continue
		}
		sut = sp
	}
	defer sut.kill()

	streams := newStreamClient(w.streams)
	defer streams.CloseIdleConnections()
	url := sut.addrs.Entry + w.enactPath()
	if err := p.phase(ctx, o, "warm", url, streams, nil); err != nil {
		return nil, err
	}
	for _, ph := range []string{"open", "sat"} {
		rep, err := sut.report()
		if err != nil {
			return nil, err
		}
		p.reports = append(p.reports, rep)
		var qs *querySpec
		if ph == "open" && w.queryRate > 0 {
			qs = &querySpec{base: sut.addrs.Entry, runs: prepopRuns, items: prepopItems}
		}
		if err := p.phase(ctx, o, ph, url, streams, qs); err != nil {
			return nil, err
		}
	}
	rss, err := sut.peakRSSKiB()
	if err != nil {
		return nil, err
	}
	p.peakRSSKiB = rss
	rep, err := sut.report()
	if err != nil {
		return nil, err
	}
	p.reports = append(p.reports, rep)
	if err := sut.stop(); err != nil {
		return nil, err
	}
	if err := p.verify(o); err != nil {
		return nil, err
	}
	return p, nil
}

// progress notes a step on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %s: "+format+"\n", append([]any{time.Now().Format("15:04:05.000")}, args...)...)
}

// newStreamClient keeps at most n connections: one per concurrent stream.
func newStreamClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// querySpec is what the eventtime-query phase needs to build its
// queries: the SUT and the prepopulated runs and items.
type querySpec struct {
	base  string
	runs  int
	items []itemDef
}

// phase runs one phase's streams (and queries) to completion.
func (p *pass) phase(ctx context.Context, o *options, name, url string, client *http.Client, qs *querySpec) error {
	w := o.w
	progress("%s phase", name)
	start := time.Now().Add(20 * time.Millisecond)
	runs := make([]*streamRun, w.streams)
	var wg sync.WaitGroup
	for k := range runs {
		sr := &streamRun{k: k, phase: name, start: start,
			sched: newSchedule(w, o.seed, fmt.Sprintf("%s%d-s%d", name, k, o.seed))}
		runs[k] = sr
		q := newBodyQueue(0)
		switch name {
		case "warm":
			sr.nOps = warmOps
		case "open":
			sr.nOps = int(w.rate * p.openSecs)
		case "sat":
			// A fixed amount of work, written as fast as backpressure
			// lets it. Loopback socket buffers hold megabytes, so a
			// time-bounded writer would queue far more than it measures.
			sr.nOps = w.satItems
			q = newBodyQueue(satQueueBytes)
		}
		sr.sched.extend(sr.nOps)
		wg.Add(2)
		go func() {
			defer wg.Done()
			sr.resp = postStream(ctx, client, url, q)
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start))
			if name == "open" {
				sr.lags = feedOpenLoop(w, sr.sched, sr.k, sr.nOps, start, q)
				return
			}
			feedAll(sr.sched, sr.nOps, q)
		}()
	}
	if qs != nil {
		n := int(w.queryRate * p.openSecs)
		qc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		defer qc.CloseIdleConnections()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.queries = runQueries(ctx, qc, qs.base, uint64(o.seed), n, w.queryRate, qs.runs, qs.items, start)
		}()
	}
	wg.Wait()
	progress("%s phase done", name)
	for _, sr := range runs {
		if sr.resp.err != nil {
			return fmt.Errorf("%s stream %d: %w", name, sr.k, sr.resp.err)
		}
	}
	p.streams = append(p.streams, runs...)
	return ctx.Err()
}

// prepopulate fills a data directory from the seed before timing: a
// stream that is then checkpointed (GET /readyz flushes the metadata
// stores, as in quratord), a second stream left in the WAL, and a crash.
// The measured SUT recovers from segments plus WAL replay. It returns the
// provenance runs written and the items annotated.
func prepopulate(ctx context.Context, o *options, dir string) (int, []itemDef, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, nil, err
	}
	sut, _, err := startSUT(o.exe, o.w, dir, false)
	if err != nil {
		return 0, nil, err
	}
	defer sut.kill()
	client := newStreamClient(1)
	defer client.CloseIdleConnections()
	runs := 0
	var items []itemDef
	for i, n := range []int{o.w.prepopulate, o.w.prepopulate / 2} {
		s := newSchedule(o.w, o.seed, fmt.Sprintf("prepop%d-s%d", i, o.seed))
		s.extend(n)
		q := newBodyQueue(0)
		for j := 0; j < n; j++ {
			q.push(s.items[s.ops[j].item].line)
		}
		q.close()
		r := postStream(ctx, client, sut.addrs.Entry+o.w.enactPath(), q)
		if r.err != nil || r.status != http.StatusOK {
			return 0, nil, fmt.Errorf("prepopulation stream: status %d: %v", r.status, r.err)
		}
		obs, errRec, err := parseResponse(r.lines, r.at)
		if err != nil || errRec != "" {
			return 0, nil, fmt.Errorf("prepopulation stream: %v %s", err, errRec)
		}
		runs += len(obs)
		items = append(items, s.items...)
		if i == 0 {
			if err := sut.get("/readyz"); err != nil {
				return 0, nil, err
			}
		}
	}
	// Let the interval fsync tick pass, then crash.
	time.Sleep(250 * time.Millisecond)
	sut.kill()
	return runs, items, nil
}

// verify runs the correctness oracle over every stream of the pass:
// the exactly-once and structure checks, a seeded sample of windows
// re-decided by batch enactment, the fleet journal depths, and the
// query outcomes.
func (p *pass) verify(o *options) error {
	w := o.w
	bo, err := newBatchOracle(w)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	windows := 0
	for _, sr := range p.streams {
		obs, errRec, err := parseResponse(sr.resp.lines, sr.resp.at)
		if err != nil {
			errRec = err.Error()
		}
		sr.obs = obs
		sr.check = checkStream(w, sr.sched, sr.nOps, sr.resp.status, obs, errRec)
		p.attempted += sr.check.attempted
		p.failed += sr.check.failed
		for _, pr := range sr.check.problems {
			p.problems = append(p.problems, fmt.Sprintf("%s stream %d: %s", sr.phase, sr.k, pr))
		}
		windows += len(expected(w, sr.sched, sr.nOps))
		nv := len(w.views)
		for s := 0; s < oracleSample && len(obs) > 0; s++ {
			j := rng.Intn(len(obs))
			ew := sr.check.matched[j]
			if ew == nil {
				continue
			}
			want, err := bo.decide(sr.sched, ew, j%nv)
			if err != nil {
				return fmt.Errorf("batch oracle: %w", err)
			}
			if bad := compareDecisions(obs[j].decisions, want); len(bad) > 0 {
				p.failed += len(bad)
				p.problems = append(p.problems, fmt.Sprintf("%s stream %d window %d: %d decisions differ from batch enactment (first %s)",
					sr.phase, sr.k, ew.seq, len(bad), bad[0]))
			}
		}
	}
	// Every node's journal holds one entry per window and view: the
	// owner's commits, and each peer's replicas.
	last := p.reports[len(p.reports)-1]
	for i, n := range last.Journals {
		if want := windows * len(w.views); n != want {
			d := want - n
			if d < 0 {
				d = -d
			}
			p.failed += d
			p.problems = append(p.problems, fmt.Sprintf("node %d journal holds %d entries, want %d", i, n, want))
		}
	}
	for _, q := range p.queries {
		p.attempted++
		if !q.ok {
			p.failed++
			if len(p.problems) < 20 {
				p.problems = append(p.problems, "query: "+q.problem)
			}
		}
	}
	return nil
}

// phaseStreams returns the pass's streams of one phase.
func (p *pass) phaseStreams(name string) []*streamRun {
	var out []*streamRun
	for _, sr := range p.streams {
		if sr.phase == name {
			out = append(out, sr)
		}
	}
	return out
}

// decisionLatencies are the open-loop phase's window latencies (ms):
// from the due time of the operation that fired each window to the
// client reading its summary line. Windows fired by the end of input are
// excluded, as is window-fill time.
func (p *pass) decisionLatencies(w *workload) []float64 {
	var out []float64
	for _, sr := range p.phaseStreams("open") {
		for j, ew := range sr.check.matched {
			if ew == nil || ew.fireOp < 0 {
				continue
			}
			due := sr.start.Add(w.due(ew.fireOp, sr.k))
			out = append(out, float64(sr.obs[j].at-due.UnixNano())/1e6)
		}
	}
	return out
}

// itemsPerSecond is the saturation phase's throughput: items decided
// (first view, original emissions) per second between the moments the
// client had read 10% and 90% of them, so neither the pipeline filling
// nor the last stream draining alone counts.
func (p *pass) itemsPerSecond() (float64, int) {
	type read struct {
		at int64
		n  int
	}
	var reads []read
	total := 0
	for _, sr := range p.phaseStreams("sat") {
		nv := len(viewLabels(p.w))
		for j, o := range sr.obs {
			if j%nv == 0 && !o.sum.Late {
				reads = append(reads, read{o.at, len(o.decisions)})
				total += len(o.decisions)
			}
		}
	}
	sort.Slice(reads, func(a, b int) bool { return reads[a].at < reads[b].at })
	var cum, n10, n90 int
	var t10, t90 int64
	for _, r := range reads {
		cum += r.n
		if t10 == 0 && cum >= total/10 {
			t10, n10 = r.at, cum
		}
		if cum >= total*9/10 {
			t90, n90 = r.at, cum
			break
		}
	}
	if t90 <= t10 {
		return 0, total
	}
	return float64(n90-n10) / (float64(t90-t10) / 1e9), total
}

// genLags are the open-loop generator's queueing lateness samples (ms).
func (p *pass) genLags() []float64 {
	var out []float64
	for _, sr := range p.phaseStreams("open") {
		out = append(out, sr.lags...)
	}
	return out
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return 0
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

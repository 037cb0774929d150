package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"qurator"
	"qurator/internal/annotstore"
	"qurator/internal/cluster"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/library"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
	"qurator/internal/stream"
	"qurator/internal/telemetry"
)

// readyLine prefixes the line the SUT prints on stdout once it answers
// requests: the generator's signal that set-up has finished.
const readyLine = "PERFBENCH-READY "

// sutAddrs is the READY payload: every node's base URL and the node the
// generator sends streams to. On a fleet that is a node which does not
// own the streams' partition key, so every stream is forwarded.
type sutAddrs struct {
	Nodes []string `json:"nodes"`
	Entry string   `json:"entry"`
}

// sutNode is one quratord instance inside the SUT process.
type sutNode struct {
	f    *qurator.Framework
	node *cluster.Node
	srv  *http.Server
	ln   net.Listener
	url  string
}

// runSUT is the system under test: quratord's stream stack, assembled
// from the public constructors cmd/quratord/main.go calls and in the same
// order (that package is a main package and cannot be imported). With
// -trace it also wraps the calls into each layer's public functions and
// serves what it recorded at /bench/report.
func runSUT(args []string) error {
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	name := fs.String("workload", "", "workload whose topology to assemble")
	dataDir := fs.String("data", "", "data directory root for durable workloads")
	traced := fs.Bool("trace", false, "record per-layer spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if w.durable && *dataDir == "" {
		return errors.New("sut: durable workload needs -data")
	}
	var col *collector
	if *traced {
		col = newCollector()
		defer col.stop()
	}

	nodes := make([]*sutNode, w.nodes)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		nodes[i] = &sutNode{ln: ln, url: "http://" + ln.Addr().String()}
	}
	for i, n := range nodes {
		if err := n.assemble(w, i, nodes, *dataDir, col); err != nil {
			return err
		}
	}
	nodes[0].srv.Handler = benchMux(nodes, col, nodes[0].srv.Handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, len(nodes))
	for _, n := range nodes {
		go func(n *sutNode) { errCh <- n.srv.Serve(n.ln) }(n)
	}
	for _, n := range nodes {
		if n.node != nil {
			if err := n.node.Start(ctx); err != nil {
				return err
			}
		}
	}
	addrs, err := converge(ctx, w, nodes)
	if err != nil {
		return err
	}
	// Compile every view once before announcing readiness, so a broken
	// view fails set-up instead of the first stream.
	for _, v := range w.views {
		if _, err := streamCompiler(nodes[0].f)(v); err != nil {
			return fmt.Errorf("sut: view %s: %w", v, err)
		}
	}
	line, _ := json.Marshal(addrs)
	fmt.Printf("%s%s\n", readyLine, line)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range nodes {
		if n.node != nil {
			n.node.Leave(drainCtx)
		}
	}
	var firstErr error
	for _, n := range nodes {
		if err := n.srv.Shutdown(drainCtx); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := n.f.CloseMetadata(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// assemble builds node i the way quratord's main does: framework,
// persistence, standard library, annotator, fleet node and journal,
// stream handler, forwarding, admission, readiness, mux.
func (n *sutNode) assemble(w *workload, i int, all []*sutNode, dataDir string, col *collector) error {
	f := qurator.New()
	n.f = f
	if w.durable {
		dir := filepath.Join(dataDir, fmt.Sprintf("node%d", i))
		if err := f.EnablePersistence(qurator.Persistence{Dir: dir, Fsync: "interval"}); err != nil {
			return err
		}
	}
	if err := f.DeployStandardLibrary(); err != nil {
		return err
	}
	if err := publishBenchViews(f); err != nil {
		return err
	}
	if col != nil {
		col.wrapAssertions(f)
	}
	if w.demoAnnotator {
		if err := f.DeployAnnotator("ImprintOutputAnnotator", demoAnnotator{col: col}); err != nil {
			return err
		}
	}

	if w.nodes > 1 {
		cfg := cluster.Config{Self: cluster.NodeInfo{ID: fmt.Sprintf("n%d", i+1), Addr: n.url}}
		if i > 0 {
			cfg.Seeds = []string{all[0].url}
		}
		if col != nil {
			cfg.Client = &http.Client{Timeout: 2 * time.Second, Transport: col.peerTransport()}
			cfg.ForwardClient = &http.Client{Transport: col.forwardTransport()}
		}
		node, err := cluster.NewNode(cfg)
		if err != nil {
			return err
		}
		node.AttachJournal(cluster.NewJournal(f.Provenance))
		n.node = node
	}

	var streamH http.Handler
	if n.node != nil {
		var j stream.WindowJournal = n.node.Journal()
		if col != nil {
			j = timedJournal{WindowJournal: j, col: col}
		}
		streamH = n.node.EnactHandler(col.wrap("stream.handler", stream.Handler(streamCompiler(f), stream.WithJournal(j))))
	} else {
		streamH = col.wrap("stream.handler", stream.Handler(streamCompiler(f)))
	}
	// Admission is on, with limits the workloads never reach.
	adm := cluster.NewAdmission(cluster.AdmissionConfig{RatePerTenant: 1000, Burst: 1000, MaxInflight: 64})
	streamH = adm.Wrap("/stream/enact", streamH)

	ready := cluster.NewReadiness()
	if w.durable {
		ready.Add("metadata", f.FlushMetadata)
	}
	if n.node != nil {
		ready.Add("cluster", n.node.ReadinessCheck)
	}
	ready.Add("breakers", func() error {
		var open []string
		for ep, st := range f.BreakerStates() {
			if st == "open" {
				open = append(open, ep)
			}
		}
		if len(open) > 0 {
			sort.Strings(open)
			return fmt.Errorf("open breakers: %s", strings.Join(open, ", "))
		}
		return nil
	})

	mux := http.NewServeMux()
	mux.Handle("/services", f.Handler())
	mux.Handle("/services/", f.Handler())
	mux.Handle("/repositories", f.Handler())
	mux.Handle("/repositories/", f.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("GET /readyz", ready.Handler())
	nodeName := strings.TrimPrefix(n.url, "http://")
	if n.node != nil {
		nodeName = n.node.Self().ID
		mux.Handle("/cluster", n.node.Handler())
		mux.Handle("/cluster/", col.wrapPath("/cluster/journal", "cluster.absorb", n.node.Handler()))
		mux.Handle("GET /cluster/metrics", n.node.MetricsHandler(telemetry.Default))
	}
	mux.Handle("/stream/enact", streamH)
	mux.Handle("POST /query", col.wrapQuery(f.QueryHandler()))
	mux.Handle("GET /cube", col.wrap("qcube.slice", f.CubeHandler()))
	mux.Handle("GET /metrics", telemetry.Default.Handler())
	mux.Handle("GET /debug/enactments", cluster.FleetDebugHandler(n.node, telemetry.DefaultRecorder, nodeName))
	mux.Handle("GET /debug/traces/", telemetry.FragmentsHandler(telemetry.DefaultRecorder, nodeName))
	n.srv = &http.Server{Handler: col.wrap("server", mux), ReadHeaderTimeout: 10 * time.Second}
	return nil
}

// converge waits until every fleet node sees every other as alive, then
// names the entry node: the first node that does not own the streams'
// partition key.
func converge(ctx context.Context, w *workload, nodes []*sutNode) (sutAddrs, error) {
	addrs := sutAddrs{Entry: nodes[0].url}
	for _, n := range nodes {
		addrs.Nodes = append(addrs.Nodes, n.url)
	}
	if w.nodes == 1 {
		return addrs, nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, n := range nodes {
			alive := 0
			for _, p := range n.node.Peers() {
				if p.Status == cluster.Alive {
					alive++
				}
			}
			done = done && alive == len(nodes)-1
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return addrs, errors.New("sut: fleet did not converge in 30s")
		}
		select {
		case <-ctx.Done():
			return addrs, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	key := strings.Join(w.views, ",")
	owner, ok := nodes[0].node.Owner(key)
	if !ok {
		return addrs, fmt.Errorf("sut: no owner for %q", key)
	}
	for _, n := range nodes {
		if n.node.Self().ID != owner.ID {
			addrs.Entry = n.url
			break
		}
	}
	return addrs, nil
}

// streamCompiler resolves ?view= names exactly as quratord's does: the
// built-in §5.1 view by its aliases, otherwise the shared-view library.
func streamCompiler(f *qurator.Framework) stream.CompileFunc {
	return func(view string) (*compiler.Compiled, error) {
		switch view {
		case "paper", "protein-id-quality":
			return f.CompileViewForStream([]byte(qurator.PaperViewXML))
		}
		entry, ok := f.Library.Get(view)
		if !ok {
			return nil, fmt.Errorf("unknown view (try \"paper\" or a library view name)")
		}
		return f.CompileViewForStream([]byte(entry.ViewXML))
	}
}

// paperCondition is the §5.1 view's filter condition as it appears in
// PaperViewXML.
const paperCondition = "ScoreClass in q:high, q:mid and HR_MC &gt; 20"

// benchViews are the library views the workloads enact besides "paper":
// three variants of the §5.1 view that differ only in their filter
// condition (merged into one plan on fleet-journal), and a variant whose
// annotator and QAs use the durable "default" repository
// (eventtime-query), so annotator writes reach the metadata store.
var benchViews = []struct{ name, condition, repo string }{
	{"pv-a", paperCondition, "cache"},
	{"pv-b", "ScoreClass in q:high and HR_MC &gt; 10", "cache"},
	{"pv-c", "HR_MC &gt; 30", "cache"},
	{"paper-durable", paperCondition, "default"},
}

// viewXML derives a library view from PaperViewXML.
func viewXML(name, condition, repo string) string {
	x := strings.Replace(qurator.PaperViewXML, `name="protein-id-quality"`, `name="`+name+`"`, 1)
	x = strings.Replace(x, paperCondition, condition, 1)
	if repo != "cache" {
		x = strings.ReplaceAll(x, `repositoryRef="cache" persistent="false"`, `repositoryRef="`+repo+`"`)
		x = strings.ReplaceAll(x, `repositoryRef="cache"`, `repositoryRef="`+repo+`"`)
	}
	return x
}

func publishBenchViews(f *qurator.Framework) error {
	for _, v := range benchViews {
		if _, err := f.PublishView(library.Entry{Name: v.name, ViewXML: viewXML(v.name, v.condition, v.repo)}); err != nil {
			return fmt.Errorf("publish %s: %w", v.name, err)
		}
	}
	return nil
}

// demoAnnotator is quratord's -with-demo-annotator annotator, declared
// again here because quratord is a main package: evidence derived from an
// FNV hash of the item URI. With a collector it times Annotate and every
// repository Put.
type demoAnnotator struct{ col *collector }

func (demoAnnotator) Class() rdf.Term { return ontology.ImprintOutputAnnotation }

func (demoAnnotator) Provides() []rdf.Term {
	return []rdf.Term{ontology.HitRatio, ontology.Coverage, ontology.Masses, ontology.PeptidesCount}
}

func (d demoAnnotator) Annotate(items []evidence.Item, repo annotstore.Store) error {
	if d.col != nil {
		defer d.col.since("annotator", time.Now())
		repo = timedStore{Store: repo, col: d.col}
	}
	for _, it := range items {
		h := fnv32(it.Value())
		hr := float64(h%100) / 100
		mc := float64((h/100)%100) / 100
		for _, a := range []annotstore.Annotation{
			{Item: it, Type: ontology.HitRatio, Value: evidence.Float(hr)},
			{Item: it, Type: ontology.Coverage, Value: evidence.Float(mc)},
			{Item: it, Type: ontology.Masses, Value: evidence.Int(int64(h % 40))},
			{Item: it, Type: ontology.PeptidesCount, Value: evidence.Int(int64(h % 12))},
		} {
			a.Source = ontology.ImprintOutputAnnotation
			if err := repo.Put(a); err != nil {
				return err
			}
		}
	}
	return nil
}

func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

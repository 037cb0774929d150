package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"qurator/internal/ontology"
)

var errAborted = errors.New("perfbench: body aborted")

// bodyQueue is a streaming request body the generator appends NDJSON
// lines to. Reads return everything queued so far, so the transport sends
// whatever is due as one chunk. Unbounded (limit 0) it never blocks the
// generator: an open-loop schedule keeps its due times however slowly
// the server reads. Bounded, push blocks while limit bytes are queued —
// the saturation phase's backpressure.
type bodyQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []byte
	limit   int
	closed  bool
	aborted bool
}

func newBodyQueue(limit int) *bodyQueue {
	q := &bodyQueue{limit: limit}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push queues lines, blocking while a bounded queue is full. It returns
// false once the body is aborted.
func (q *bodyQueue) push(lines ...[]byte) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.limit > 0 && len(q.buf) >= q.limit && !q.aborted {
		q.cond.Wait()
	}
	if q.aborted {
		return false
	}
	for _, l := range lines {
		q.buf = append(q.buf, l...)
	}
	q.cond.Broadcast()
	return true
}

// close ends the body once the queued bytes are read.
func (q *bodyQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// abort fails pending and future reads and pushes.
func (q *bodyQueue) abort() {
	q.mu.Lock()
	q.aborted = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// queued reports the bytes not yet read by the transport.
func (q *bodyQueue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

func (q *bodyQueue) Read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed && !q.aborted {
		q.cond.Wait()
	}
	if q.aborted {
		return 0, errAborted
	}
	if len(q.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, q.buf)
	q.buf = append(q.buf[:0], q.buf[n:]...)
	q.cond.Broadcast()
	return n, nil
}

// response is one stream request as the client saw it.
type response struct {
	status int
	err    error
	span   interval // request start to last response byte
	lines  [][]byte
	at     []int64 // when each line was read (unix ns)
}

// postStream runs one /stream/enact request whose body is fed by q,
// reading the response concurrently and timestamping every line as it is
// read.
func postStream(ctx context.Context, client *http.Client, url string, q *bodyQueue) *response {
	r := &response{}
	start := time.Now()
	defer func() { r.span = interval{start.UnixNano(), time.Now().UnixNano()} }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, q)
	if err != nil {
		r.err = err
		return r
	}
	req.ContentLength = -1
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		q.abort()
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			now := time.Now().UnixNano()
			r.lines = append(r.lines, bytes.Clone(bytes.TrimSpace(line)))
			r.at = append(r.at, now)
		}
		if err == bufio.ErrBufferFull {
			r.err = errors.New("response line longer than 64KiB")
			break
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = err
			break
		}
	}
	if r.err != nil || resp.StatusCode/100 != 2 {
		q.abort()
	}
	return r
}

// feedOpenLoop queues a stream's first n operations at their due times
// relative to start, never waiting on the server, and records how late
// the generator itself queued each one (ms).
func feedOpenLoop(w *workload, s *schedule, k, n int, start time.Time, q *bodyQueue) []float64 {
	defer q.close()
	lags := make([]float64, 0, n)
	var batch [][]byte
	for i := 0; i < n; {
		el := time.Since(start)
		batch = batch[:0]
		for ; i < n && w.due(i, k) <= el; i++ {
			batch = append(batch, s.items[s.ops[i].item].line)
			lags = append(lags, float64(el-w.due(i, k))/1e6)
		}
		if len(batch) > 0 && !q.push(batch...) {
			return lags
		}
		if i < n {
			time.Sleep(w.due(i, k) - time.Since(start))
		}
	}
	return lags
}

// feedAll queues a stream's first n operations as fast as the body
// drains: with a bounded queue, as fast as the SUT's backpressure lets
// it.
func feedAll(s *schedule, n int, q *bodyQueue) {
	defer q.close()
	for i := 0; i < n; i++ {
		if !q.push(s.items[s.ops[i].item].line) {
			return
		}
	}
}

// query is one read request of the eventtime-query mix.
type query struct {
	kind string // "provenance", "annotations" or "cube"
	body string // POST /query body; empty for GET /cube
}

// queryMix derives query i from the seed: one in twenty looks up one
// provenance run, one in twenty one item's annotations, the rest read a
// quality-cube slice. Runs and items come from the prepopulated data, so
// every query has rows to return. Each SPARQL query takes a metadata
// snapshot, and the next write forks the index nodes it shares, so the
// snapshot share sets how hard reads press on the writer.
func queryMix(seed uint64, i, runs int, items []itemDef) query {
	h := mix(seed^0x51ed, uint64(i))
	switch h % 20 {
	case 0:
		run := 1 + (h/20)%uint64(runs)
		return query{kind: "provenance", body: queryBody("provenance",
			fmt.Sprintf("SELECT ?p ?o WHERE { <%srun/%d> ?p ?o . }", ontology.QuratorNS, run))}
	case 1:
		item := items[(h/20)%uint64(len(items))].id
		return query{kind: "annotations", body: queryBody("annotations:default",
			fmt.Sprintf("SELECT ?t ?v WHERE { <%s> <%scontainsEvidence> ?n . ?n a ?t . ?n <%sevidenceValue> ?v . }",
				item, ontology.QuratorNS, ontology.QuratorNS))}
	default:
		return query{kind: "cube"}
	}
}

func queryBody(target, sparql string) string {
	b, _ := json.Marshal(map[string]string{"target": target, "query": sparql})
	return string(b)
}

// queryResult is one query's outcome: latency from its due time to the
// last response byte, and the span from sending it to that byte.
type queryResult struct {
	latencyMs float64
	span      interval
	ok        bool
	problem   string
}

// runQueries sends n queries open-loop at rate per second on one
// connection. A query sent late because the previous one was slow is
// timed from its due time.
func runQueries(ctx context.Context, client *http.Client, base string, seed uint64, n int, rate float64,
	runs int, items []itemDef, start time.Time) []queryResult {
	cubeURL := base + "/cube?" + url.Values{
		"metric": {ontology.HitRatio.Value()},
		"source": {ontology.ImprintOutputAnnotation.Value()},
	}.Encode()
	out := make([]queryResult, 0, n)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		q := queryMix(seed, i, runs, items)
		sent := time.Now()
		var res queryResult
		var req *http.Request
		var err error
		if q.kind == "cube" {
			req, err = http.NewRequestWithContext(ctx, http.MethodGet, cubeURL, nil)
		} else {
			req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", strings.NewReader(q.body))
		}
		if err == nil {
			var resp *http.Response
			if resp, err = client.Do(req); err == nil {
				res.ok, res.problem = checkQuery(q.kind, resp)
			}
		}
		end := time.Now()
		if err != nil {
			res.problem = err.Error()
		}
		res.latencyMs = float64(end.Sub(due)) / 1e6
		res.span = interval{sent.UnixNano(), end.UnixNano()}
		out = append(out, res)
	}
	return out
}

// checkQuery reads a query response and checks it: 2xx, and at least one
// row (SPARQL) or one rollup (cube).
func checkQuery(kind string, resp *http.Response) (bool, string) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err.Error()
	}
	if resp.StatusCode/100 != 2 {
		return false, fmt.Sprintf("%s: status %d", kind, resp.StatusCode)
	}
	if kind == "cube" {
		var v any
		if err := json.Unmarshal(body, &v); err != nil || v == nil {
			return false, "cube: unreadable slice"
		}
		return true, ""
	}
	var r struct{ Rows []map[string]string }
	if err := json.Unmarshal(body, &r); err != nil {
		return false, kind + ": " + err.Error()
	}
	if len(r.Rows) == 0 {
		return false, kind + ": no rows"
	}
	return true, ""
}

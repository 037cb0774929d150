package stream_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qurator/internal/compiler"
	"qurator/internal/qvlang"
	"qurator/internal/stream"
)

// streamingViewXML is the paper view with a <streaming> declaration:
// event-time tumbling windows of 100ms on q:ObservedAt, superseding late
// data for 1s.
var streamingViewXML = strings.Replace(qvlang.PaperViewXML, "</QualityView>",
	`<streaming eventtime="q:ObservedAt" window="100ms" max-out-of-order="0s" allowed-lateness="1s" late="supersede"/>
</QualityView>`, 1)

func eventStreamServer(t *testing.T, opts ...stream.HandlerOption) *httptest.Server {
	t.Helper()
	compile := func(view string) (*compiler.Compiled, error) {
		switch view {
		case "protein-id-quality":
			return compileViewXML(t, qvlang.PaperViewXML, identityAnnotator()), nil
		case "declared":
			return compileViewXML(t, streamingViewXML, identityAnnotator()), nil
		}
		return nil, fmt.Errorf("unknown view %q", view)
	}
	srv := httptest.NewServer(stream.Handler(compile, opts...))
	t.Cleanup(srv.Close)
	return srv
}

type summaryLine struct {
	Window     *int   `json:"window"`
	Decided    *int   `json:"decided"`
	Kind       string `json:"kind"`
	Start      int64  `json:"start"`
	End        int64  `json:"end"`
	Late       bool   `json:"late"`
	Supersedes string `json:"supersedes"`
	Partial    bool   `json:"partial"`
}

// postStream posts NDJSON items and returns the window-summary lines.
func postStream(t *testing.T, url, body string) []summaryLine {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var summaries []summaryLine
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var l summaryLine
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Decided != nil {
			summaries = append(summaries, l)
		}
	}
	return summaries
}

func etLine(i int, ms int64) string {
	return fmt.Sprintf("{\"item\":\"urn:lsid:test.org:hit:%d\",\"evidence\":{\"q:ObservedAt\":%d}}\n", i, ms)
}

func TestHandlerEventTimeQueryParams(t *testing.T) {
	srv := eventStreamServer(t)
	body := etLine(0, 0) + etLine(1, 25) + etLine(2, 100) + etLine(3, 150)
	sums := postStream(t, srv.URL+
		"/stream/enact?view=protein-id-quality&eventtime=q:ObservedAt&window-duration=100ms", body)
	if len(sums) != 2 {
		t.Fatalf("got %d windows, want 2", len(sums))
	}
	first := sums[0]
	if first.Kind != "tumbling" || first.Start != 0 || first.End != 100 || *first.Decided != 2 {
		t.Fatalf("first window = %+v, want tumbling [0,100) deciding 2", first)
	}
}

func TestHandlerViewDeclarationDefaults(t *testing.T) {
	srv := eventStreamServer(t)
	// No windowing query params at all: the view's <streaming> element
	// must select 100ms event-time tumbling windows.
	body := etLine(0, 0) + etLine(1, 25) + etLine(2, 150) + etLine(3, 50)
	sums := postStream(t, srv.URL+"/stream/enact?view=declared", body)
	if len(sums) != 3 {
		t.Fatalf("got %d windows, want 3 (fire, late re-fire, partial flush)", len(sums))
	}
	if sums[0].Kind != "tumbling" || sums[0].End != 100 {
		t.Fatalf("first window = %+v, want the declared tumbling [0,100)", sums[0])
	}
	re := sums[1]
	if !re.Late || re.Supersedes == "" {
		t.Fatalf("second emission = %+v, want a superseding late re-fire (declared allowed-lateness)", re)
	}

	// An explicit count-window query must win over the declaration.
	sums = postStream(t, srv.URL+"/stream/enact?view=declared&window=2", body)
	for _, s := range sums {
		if s.Kind != "" {
			t.Fatalf("explicit ?window= did not override the declaration: %+v", s)
		}
	}
	// An explicit late=drop must win over the declared supersede.
	sums = postStream(t, srv.URL+"/stream/enact?view=declared&late=drop", body)
	for _, s := range sums {
		if s.Late {
			t.Fatalf("explicit ?late=drop did not override the declaration: %+v", s)
		}
	}
}

func TestHandlerRejectsBadEventTimeParams(t *testing.T) {
	srv := eventStreamServer(t)
	for _, q := range []string{
		"view=protein-id-quality&eventtime=q:ObservedAt", // no duration
		"view=protein-id-quality&eventtime=q:ObservedAt&window-duration=nope",
		"view=protein-id-quality&eventtime=q:ObservedAt&window-duration=100ms&session-gap=50ms",
		"view=protein-id-quality&late=sideways",
	} {
		resp, err := http.Post(srv.URL+"/stream/enact?"+q, "application/x-ndjson", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestHandlerDriftOption(t *testing.T) {
	reg := stream.NewDriftRegistry()
	srv := eventStreamServer(t, stream.WithDrift(stream.DriftConfig{Registry: reg, MinWindows: 2}))
	var body strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&body, "{\"item\":\"urn:lsid:test.org:hit:%d\"}\n", i)
	}
	postStream(t, srv.URL+"/stream/enact?view=protein-id-quality&window=2", body.String())
	d, ok := reg.Detector("protein-id-quality")
	if !ok {
		t.Fatal("handler stream did not register a drift detector")
	}
	snap := d.Snapshot()
	tr, ok := snap[stream.AcceptRateMetric]
	if !ok || tr.Windows != 4 {
		t.Fatalf("accept-rate track = %+v, want 4 observed windows", tr)
	}
}

func TestHandlerAutoTightenOnDrift(t *testing.T) {
	// A stable accept rate then a collapse (odd items only → everything
	// rejected) must fire a drift alert that swaps in the tightened
	// filter condition. The compiled view is shared across requests via
	// the closure, so the tightening is observable after the stream.
	var compiled *compiler.Compiled
	compile := func(view string) (*compiler.Compiled, error) {
		if compiled == nil {
			compiled = compileViewXML(t, qvlang.PaperViewXML, identityAnnotator())
		}
		return compiled, nil
	}
	srv := httptest.NewServer(stream.Handler(compile,
		stream.WithDrift(stream.DriftConfig{MinWindows: 2, H: 2, K: 0.1}),
		stream.WithAutoTighten("filter top k score", "ScoreClass in q:high"),
	))
	t.Cleanup(srv.Close)

	var body strings.Builder
	// 10 balanced windows (accept rate 0.5), then 10 all-weak windows
	// (accept rate 0): a sustained collapse the CUSUM must flag.
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&body, "{\"item\":\"urn:lsid:test.org:hit:%d\"}\n", i)
	}
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&body, "{\"item\":\"urn:lsid:test.org:hit:%d\"}\n", 21+2*i) // odd = weak
	}
	postStream(t, srv.URL+"/stream/enact?view=protein-id-quality&window=2", body.String())

	// OnAlert runs synchronously inside the detector's Observe, before Run
	// closes its output, so the response has ended only after any
	// tightening. The stream's plan of one reuses the view's action
	// processors, so the member's condition is the one the plan enacts.
	if got := compiled.Conditions()["filter top k score"]; got != "ScoreClass in q:high" {
		t.Fatalf("drift alert never tightened the filter (condition %q)", got)
	}
}

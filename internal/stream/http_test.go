package stream_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qurator/internal/compiler"
	"qurator/internal/qvlang"
	"qurator/internal/stream"
)

func streamServer(t *testing.T) *httptest.Server {
	t.Helper()
	compile := func(view string) (*compiler.Compiled, error) {
		if view != "protein-id-quality" {
			return nil, fmt.Errorf("unknown view %q", view)
		}
		return compileViewXML(t, qvlang.PaperViewXML, identityAnnotator()), nil
	}
	srv := httptest.NewServer(stream.Handler(compile))
	t.Cleanup(srv.Close)
	return srv
}

// TestHandlerEmitsBeforeInputCloses is the liveness property of the
// NDJSON endpoint: with the request body still open (producer paused
// after one window's worth of items), the first window's decisions must
// already arrive at the client.
func TestHandlerEmitsBeforeInputCloses(t *testing.T) {
	srv := streamServer(t)

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost,
		srv.URL+"/stream/enact?view=protein-id-quality&window=4", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()

	// Produce exactly one window, then pause with the body open.
	for i := 0; i < 4; i++ {
		if _, err := fmt.Fprintf(pw, "{\"item\":\"urn:lsid:test.org:hit:%d\"}\n", i); err != nil {
			t.Fatal(err)
		}
	}

	var resp *http.Response
	select {
	case resp = <-respCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no response headers while the input stream is open")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}

	// Read the first window's four decisions + summary — all before the
	// producer writes anything further or closes the body.
	sc := bufio.NewScanner(resp.Body)
	type line struct {
		Item    string   `json:"item"`
		Outputs []string `json:"outputs"`
		Decided *int     `json:"decided"`
	}
	firstWindow := make(chan []line, 1)
	go func() {
		var got []line
		for sc.Scan() {
			var l line
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				continue
			}
			got = append(got, l)
			if l.Decided != nil { // window summary closes the window
				break
			}
		}
		firstWindow <- got
	}()
	var first []line
	select {
	case first = <-firstWindow:
	case <-time.After(10 * time.Second):
		t.Fatal("first window's decisions never arrived while the input stream was open")
	}
	if len(first) != 5 {
		t.Fatalf("first window emitted %d lines, want 4 decisions + 1 summary", len(first))
	}
	for _, l := range first[:4] {
		if l.Item == "" {
			t.Errorf("decision line missing item: %+v", l)
		}
	}
	if *first[4].Decided != 4 {
		t.Errorf("summary decided = %d, want 4", *first[4].Decided)
	}

	// Now finish the stream: one more partial window.
	fmt.Fprintf(pw, "{\"item\":\"urn:lsid:test.org:hit:4\"}\n")
	pw.Close()
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), "hit:4") {
		t.Errorf("trailing partial window missing:\n%s", rest)
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	srv := streamServer(t)

	get, err := http.Get(srv.URL + "/stream/enact?view=protein-id-quality")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", get.StatusCode)
	}

	for _, q := range []string{
		"",                                 // missing view
		"view=ghost",                       // unknown view
		"view=protein-id-quality&window=x", // bad window
		"view=protein-id-quality&window=2&slide=5", // slide > window
		"view=protein-id-quality&timeout=forever",  // bad duration
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

// TestHandlerRejectsBadParallelism: a negative or over-cap parallelism
// is refused with 400 before any channel or worker is sized from it.
func TestHandlerRejectsBadParallelism(t *testing.T) {
	srv := streamServer(t)
	for _, p := range []string{"-1", "257", "1099511627776"} {
		resp, err := http.Post(srv.URL+"/stream/enact?view=protein-id-quality&parallelism="+p,
			"application/x-ndjson", strings.NewReader(""))
		if err != nil {
			t.Fatalf("parallelism=%s: %v", p, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "parallelism") {
			t.Fatalf("parallelism=%s: status = %d, body %q, want 400", p, resp.StatusCode, body)
		}
	}
}

func TestHandlerReportsMalformedInput(t *testing.T) {
	srv := streamServer(t)
	body := "{\"item\":\"urn:lsid:test.org:hit:0\"}\nnot json\n"
	resp, err := http.Post(srv.URL+"/stream/enact?view=protein-id-quality&window=1",
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "\"error\"") {
		t.Errorf("malformed line not reported:\n%s", out)
	}
	// The valid leading item was still decided before the error.
	if !strings.Contains(string(out), "hit:0") {
		t.Errorf("valid items before the bad line were dropped:\n%s", out)
	}
}

func TestDecodeItem(t *testing.T) {
	it, err := stream.DecodeItem([]byte(`{"item":"q:spot1","evidence":{"q:HitRatio":0.5,"q:Masses":12,"note":"x","ok":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(it.ID.Value(), "spot1") {
		t.Errorf("item = %v", it.ID)
	}
	if len(it.Evidence) != 4 {
		t.Errorf("evidence = %v", it.Evidence)
	}
	for _, bad := range []string{"", "{}", `{"evidence":{}}`, "[1,2]", `{"item":" "}`} {
		if _, err := stream.DecodeItem([]byte(bad)); err == nil {
			t.Errorf("DecodeItem(%q) accepted", bad)
		}
	}
}

package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"unicode/utf8"

	"qurator/internal/provenance"
	"qurator/internal/stream"
)

// FuzzJournalRoundTrip: a committed window result either fails to commit
// or comes back unchanged from a fresh journal over the same provenance
// log. Strings are valid UTF-8, as every string the stream decodes from
// NDJSON is.
func FuzzJournalRoundTrip(f *testing.F) {
	f.Add("4bf92f3577b34da6", "paper", "urn:lsid:t:hit:0", "filter_top_k_score:accepted", 3, 4, 0.5, 0.1, true)
	f.Add("", "", "", "", 0, 0, 0.0, 0.0, false)
	f.Fuzz(func(t *testing.T, key, view, item, output string, seq, size int, mean, stddev float64, late bool) {
		for _, s := range []string{key, view, item, output} {
			if !utf8.ValidString(s) {
				return
			}
		}
		res := stream.WindowResult{
			Seq: seq, Size: size, View: view, Late: late,
			Decisions: []stream.Decision{{Item: item, Window: seq, Outputs: []string{output}}},
			Stats:     map[string]stream.WindowStats{output: {N: size, Mean: mean, StdDev: stddev, Lo: mean - stddev, Hi: mean + stddev}},
		}
		if late {
			res.Supersedes = key
		}
		log := provenance.NewLog()
		if err := NewJournal(log).Commit(key, res); err != nil {
			return
		}
		got, ok := NewJournal(log).Lookup(key)
		if !ok {
			t.Fatalf("committed key %q not found by a fresh journal", key)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("journal round trip changed the result:\n got %+v\nwant %+v", got, res)
		}
	})
}

// FuzzAbsorbJournalEntry posts arbitrary bytes to a standalone node's
// /cluster/journal. The answer is 200 or 4xx, never a 5xx or a panic; an
// accepted entry reads back as the result it carried; and posting the
// same bytes again adds nothing. Results compare as JSON bytes, because
// an empty classes map comes back nil.
func FuzzAbsorbJournalEntry(f *testing.F) {
	f.Add([]byte(`{"key":"4bf9","result":{"window":2,"size":4,"view":"paper","decisions":[{"item":"urn:lsid:t:hit:0","window":2,"outputs":["accept:out"],"classes":{}}],"stats":{"q:HitRatio":{"n":4,"mean":0.5,"stddev":0.1,"lo":0.4,"hi":0.6}}}}`))
	f.Add([]byte(`{"key":"0a","result":{"window":0,"size":1,"late":true,"supersedes":"4bf9","decisions":[{"item":"x","window":0,"outputs":null}]}}`))
	f.Add([]byte(`{"result":{}}`))
	f.Add([]byte(`{"key":"b","result":{"window":1e999}}`))
	f.Add([]byte(`{"key":"b","result":null} trailing`))
	f.Add([]byte(`{"key":"a> <b","result":{"view":"v"}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		n, err := NewNode(Config{Self: NodeInfo{ID: "n1", Addr: "http://127.0.0.1:1"}})
		if err != nil {
			t.Fatal(err)
		}
		post := func() int {
			rec := httptest.NewRecorder()
			n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/journal", bytes.NewReader(body)))
			if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
				t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
			}
			return rec.Code
		}
		if post() != http.StatusOK {
			return
		}
		var e JournalEntry
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&e); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		got, ok := n.Journal().Lookup(e.Key)
		if !ok {
			t.Fatalf("accepted key %q not found", e.Key)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(e.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("journal changed the result:\n got %s\nwant %s", gotJSON, wantJSON)
		}
		size := n.Journal().Len()
		post()
		if got := n.Journal().Len(); got != size {
			t.Fatalf("re-posting the same entry changed Len from %d to %d", size, got)
		}
	})
}

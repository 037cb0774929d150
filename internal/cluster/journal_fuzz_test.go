package cluster

import (
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

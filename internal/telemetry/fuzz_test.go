package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseExposition: whatever the parser accepts, Write renders as text
// that parses again and renders identically.
func FuzzParseExposition(f *testing.F) {
	f.Add("# HELP up Whether the target is up.\n# TYPE up gauge\nup 1\n")
	f.Add("# TYPE req counter\nreq{code=\"200\",path=\"/a\\\"b\"} 3 1700000000000\n")
	f.Add("# TYPE lat histogram\nlat_bucket{le=\"0.1\"} 1\nlat_bucket{le=\"+Inf\"} 2\nlat_sum 0.3\nlat_count 2\n")
	f.Add("x NaN\ny -Inf\n")
	f.Fuzz(func(t *testing.T, doc string) {
		exp, err := ParseExposition(strings.NewReader(doc))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := exp.Write(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ParseExposition(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rendered exposition does not re-parse: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("parse∘Write is not stable:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// FuzzParseTraceparent: no input panics the parser, and every accepted
// value's IDs survive FormatTraceparent and a second parse.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Fuzz(func(t *testing.T, s string) {
		traceID, spanID, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		tr, sp, ok := ParseTraceparent(FormatTraceparent(traceID, spanID))
		if !ok || tr != traceID || sp != spanID {
			t.Fatalf("%q parsed as (%s, %s) but its formatted form gives (%s, %s, %v)",
				s, traceID, spanID, tr, sp, ok)
		}
	})
}

package stream

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"qurator/internal/evidence"
)

// FuzzDecodeItem feeds arbitrary lines to the NDJSON item decoders — the
// first thing /stream/enact does with network input. They must never
// panic; every evidence value must decode exactly as a json.Decoder with
// UseNumber would (the decoder's earlier implementation); the stream
// reader's decoder must agree with DecodeItem on every line, and its
// scanner must accept only lines DecodeItem decodes to the same item; and
// an accepted item must re-encode and decode to equal values.
func FuzzDecodeItem(f *testing.F) {
	seeds := []string{
		`{"item":"q:spot1","evidence":{"q:HitRatio":0.5,"q:Masses":12,"note":"x","ok":true}}`,
		`{"item":"urn:lsid:t.org:hit:0","evidence":{"q:HitRatio":0.9,"q:Coverage":0.8,"q:Masses":12,"q:PeptidesCount":8}}`,
		`{"evidence":{"q:HitRatio":0.9,"ok":false,"s":"<&>"},"item":"urn:a"}`,
		`{"item":"urn:a","evidence":{}}`,
		`{"item":"urn:a"}`,
		`{"item":"urn:a","evidence":{"a": 1 ,"b":   "s"  , "c" : null, "d":false}}`,
		`{"item":"urn:a","evidence":{"big":99999999999999999999,"neg":-0,"exp":1e3,"frac":-2.50,"huge":1e999}}`,
		// Escapes, non-ASCII and invalid UTF-8.
		`{"item":"urn:a","evidence":{"esc":"é\n\"<&>","bad":"\xff"}}`,
		`{"item":"urn:a","evidence":{"u":"\u0041","k\u0041":1}}`,
		`{"item":"urn:\u0061","evidence":{"k":1}}`,
		`{"item":"urn:é","evidence":{"ké":"é"}}`,
		"{\"item\":\"urn:a\",\"evidence\":{\"k\":\"\xff\"}}",
		"{\"item\":\"urn:a\",\"evidence\":{\"k\":\"a\x7fb\"}}",
		// Whitespace around every token.
		` { "item" : "urn:a" , "evidence" : { "k" : 1 , "s" : "x" , "t" : true } } `,
		"{\"item\":\"urn:a\",\t\"evidence\":{\"k\":1}\r}",
		`{"item": "urn:a", "evidence": {"q:HitRatio": 0.5, "q:Masses": 12, "s": "x", "t": false}}`,
		"\t{\"item\":\"urn:a\"\n,\"evidence\":{ }}\r\n",
		"{\"item\":\"urn:a\",\"evidence\":{\"k\":1}}\v",
		"{\"item\":\"urn:a\",\"evidence\":{\"k\":1\f}}",
		`{"item":"   ","evidence":{"k":1}}`,
		// null, nested objects and arrays.
		`{"item":"urn:a","evidence":{"k":null}}`,
		`{"item":"urn:a","evidence":null}`,
		`{"item":null,"evidence":{"k":1}}`,
		`{"item":"urn:a","evidence":{"obj":{"x":1}}}`,
		`{"item":"urn:a","evidence":{"arr":[1,2]}}`,
		`{"item":["urn:a"],"evidence":{"k":1}}`,
		// Case variants and an unknown member.
		`{"ITEM":"urn:a","evidence":{"k":1}}`,
		`{"item":"urn:a","Evidence":{"k":1}}`,
		`{"item":"urn:a","evidence":{"k":1},"other":{"x":[1]}}`,
		// Repeated and alias keys.
		`{"item":"urn:a","evidence":{"k":1,"k":2}}`,
		`{"item":"urn:a","evidence":{"q:HitRatio":0.5,"http://qurator.org/iq#HitRatio":7}}`,
		`{"item":"urn:a","evidence":{"q:k":null,"k":1}}`,
		`{"item":"urn:a","item":"urn:b","evidence":{"k":1}}`,
		`{"item":"urn:a","evidence":{"k":1},"evidence":{"j":2}}`,
		// Numbers outside the JSON grammar, and at its edges.
		`{"item":"urn:a","evidence":{"k":01}}`,
		`{"item":"urn:a","evidence":{"k":1.}}`,
		`{"item":"urn:a","evidence":{"k":.5}}`,
		`{"item":"urn:a","evidence":{"k":+1}}`,
		`{"item":"urn:a","evidence":{"k":1e}}`,
		`{"item":"urn:a","evidence":{"k":-}}`,
		`{"item":"urn:a","evidence":{"k":NaN}}`,
		`{"item":"urn:a","evidence":{"k":-0.0e+00,"j":9223372036854775808,"i":-9223372036854775808,"h":1E-2}}`,
		`{"item":"urn:a","evidence":{"k":tru,"j":falsey}}`,
		// Trailing bytes, truncation and a UTF-8 byte-order mark.
		`{"item":"urn:a","evidence":{"k":1}}x`,
		`{"item":"urn:a"} {}`,
		`{"item":"urn:a","evidence":{"k":1}`,
		"\xef\xbb\xbf{\"item\":\"urn:a\",\"evidence\":{\"k\":1}}",
		`{"item":" "}`,
		`{"evidence":{}}`,
		`{}`,
		`[1,2]`,
		`{"item":"q:x","evidence":{"k":1`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var w wireItem
		if json.Unmarshal(line, &w) == nil {
			for key, raw := range w.Evidence {
				got, gerr := decodeValue(raw)
				want, werr := referenceDecodeValue(raw)
				if (gerr == nil) != (werr == nil) || got != want {
					t.Fatalf("evidence %q = %s: decodeValue (%v, %v), reference (%v, %v)", key, raw, got, gerr, want, werr)
				}
			}
		}
		it, err := DecodeItem(line)
		var d itemDecoder
		if scanned, ok := d.scan(line); ok && (err != nil || !sameItem(scanned, it)) {
			t.Fatalf("scan accepted %q as %v, DecodeItem returned (%v, %v)", line, scanned, it, err)
		}
		// The second decode reads its evidence keys from the warm cache.
		for pass := 0; pass < 2; pass++ {
			got, gerr := d.decode(line)
			if (gerr == nil) != (err == nil) || err != nil && gerr.Error() != err.Error() || err == nil && !sameItem(got, it) {
				t.Fatalf("stream decoder read %q as (%v, %v), DecodeItem as (%v, %v)", line, got, gerr, it, err)
			}
		}
		if err != nil {
			return
		}
		again := encodeTestItem(t, it)
		back, err := DecodeItem(again)
		if err != nil {
			t.Fatalf("re-encoded item %s rejected: %v", again, err)
		}
		if back.ID != it.ID {
			t.Fatalf("item %v re-decoded as %v", it.ID, back.ID)
		}
		if !sameItem(it, back) {
			t.Fatalf("evidence %v re-decoded as %v (via %s)", it.Evidence, back.Evidence, again)
		}
	})
}

// sameItem reports whether two decoded items are equal.
func sameItem(a, b Item) bool {
	return a.ID == b.ID && reflect.DeepEqual(a.Evidence, b.Evidence)
}

// encodeTestItem renders a decoded item back to NDJSON. Floats keep an
// exponent so they cannot re-decode as integers.
func encodeTestItem(t *testing.T, it Item) []byte {
	t.Helper()
	ev := make(map[string]json.RawMessage, len(it.Evidence))
	for k, v := range it.Evidence {
		var raw []byte
		switch v.Kind() {
		case evidence.KindInt:
			raw = []byte(v.AsString())
		case evidence.KindFloat:
			f, _ := v.AsFloat()
			raw = strconv.AppendFloat(nil, f, 'e', -1, 64)
		case evidence.KindBool:
			b, _ := v.AsBool()
			raw = strconv.AppendBool(nil, b)
		case evidence.KindString:
			var err error
			if raw, err = json.Marshal(v.AsString()); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("evidence %v: unexpected kind %v", k, v.Kind())
		}
		ev[k.Value()] = raw
	}
	line, err := json.Marshal(wireItem{Item: it.ID.Value(), Evidence: ev})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// referenceDecodeValue is the json.Decoder-based evidence decoder that
// decodeValue replaced, kept as the differential oracle.
func referenceDecodeValue(raw json.RawMessage) (evidence.Value, error) {
	var v any
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return evidence.Null, err
	}
	switch x := v.(type) {
	case nil:
		return evidence.Null, nil
	case json.Number:
		if i, err := x.Int64(); err == nil && !strings.ContainsAny(x.String(), ".eE") {
			return evidence.Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return evidence.Null, err
		}
		return evidence.Float(f), nil
	case string:
		return evidence.String_(x), nil
	case bool:
		return evidence.Bool(x), nil
	default:
		return evidence.Null, fmt.Errorf("unsupported evidence value %s", string(raw))
	}
}

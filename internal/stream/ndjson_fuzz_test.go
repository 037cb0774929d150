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

// FuzzDecodeItem feeds arbitrary lines to the NDJSON item decoder — the
// first thing /stream/enact does with network input. It must never
// panic; every evidence value must decode exactly as a json.Decoder with
// UseNumber would (the decoder's earlier implementation); and an accepted
// item must re-encode and decode to equal values.
func FuzzDecodeItem(f *testing.F) {
	seeds := []string{
		`{"item":"q:spot1","evidence":{"q:HitRatio":0.5,"q:Masses":12,"note":"x","ok":true}}`,
		`{"item":"urn:lsid:t.org:hit:0","evidence":{"q:HitRatio":0.9,"q:Coverage":0.8,"q:Masses":12,"q:PeptidesCount":8}}`,
		`{"item":"urn:a","evidence":{"a": 1 ,"b":   "s"  , "c" : null, "d":false}}`,
		`{"item":"urn:a","evidence":{"big":99999999999999999999,"neg":-0,"exp":1e3,"frac":-2.50,"huge":1e999}}`,
		`{"item":"urn:a","evidence":{"esc":"é\n\"<&>","bad":"\xff"}}`,
		`{"item":"urn:a","evidence":{"q:HitRatio":0.5,"http://qurator.org/iq#HitRatio":7}}`,
		`{"item":"urn:a","evidence":{"obj":{"x":1}}}`,
		`{"item":"urn:a","evidence":{"arr":[1,2]}}`,
		`{"item":" "}`,
		`{"evidence":{}}`,
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
		if len(it.Evidence) != len(back.Evidence) || (len(it.Evidence) > 0 && !reflect.DeepEqual(it.Evidence, back.Evidence)) {
			t.Fatalf("evidence %v re-decoded as %v (via %s)", it.Evidence, back.Evidence, again)
		}
	})
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
			n, _ := v.AsInt()
			raw = strconv.AppendInt(nil, n, 10)
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

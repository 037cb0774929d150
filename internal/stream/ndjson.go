package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
)

// wireItem is the NDJSON input record: one data item per line, with
// optional inline evidence. Evidence keys are IRIs or IQ-ontology QNames
// ("q:name", "tag/name"); values are JSON numbers, strings or booleans.
//
//	{"item":"urn:lsid:ispider.org:spot:7","evidence":{"q:HitRatio":0.62}}
type wireItem struct {
	Item     string                     `json:"item"`
	Evidence map[string]json.RawMessage `json:"evidence,omitempty"`
}

// DecodeItem parses one NDJSON line into a stream Item. Two evidence
// keys that expand to the same evidence type, such as "q:X" and its full
// IRI, are an error naming both keys, whatever their values. When a line
// has several faults, the error reports the first in sorted key order, so
// it is the same on every decode. A key repeated verbatim keeps its last
// value, as encoding/json decodes it.
func DecodeItem(line []byte) (Item, error) {
	var w wireItem
	if err := json.Unmarshal(line, &w); err != nil {
		return Item{}, fmt.Errorf("stream: bad NDJSON item: %w", err)
	}
	if strings.TrimSpace(w.Item) == "" {
		return Item{}, fmt.Errorf("stream: NDJSON item record lacks \"item\"")
	}
	it := Item{ID: evidence.Item(ontology.ExpandQName(w.Item))}
	if len(w.Evidence) == 0 {
		return it, nil
	}
	// Nulls are kept until every key is checked for aliases.
	ev := make(map[evidence.Key]evidence.Value, len(w.Evidence))
	for name, raw := range w.Evidence {
		key := ontology.ExpandQName(name)
		v, err := decodeValue(raw)
		if _, dup := ev[key]; dup || err != nil {
			return Item{}, evidenceError(w.Evidence)
		}
		ev[key] = v
	}
	for key, v := range ev {
		if v.IsNull() {
			delete(ev, key)
		}
	}
	if len(ev) > 0 {
		it.Evidence = ev
	}
	return it, nil
}

// evidenceError returns the first fault of an evidence object in sorted
// key order: two keys naming one evidence type, or a bad value.
func evidenceError(ev map[string]json.RawMessage) error {
	names := make([]string, 0, len(ev))
	for name := range ev {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := make(map[evidence.Key]string, len(names))
	for _, name := range names {
		key := ontology.ExpandQName(name)
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("stream: evidence %q and %q both name %s", prev, name, key)
		}
		seen[key] = name
		if _, err := decodeValue(ev[name]); err != nil {
			return fmt.Errorf("stream: evidence %q: %w", name, err)
		}
	}
	return nil
}

// decodeValue converts one JSON evidence value, dispatching on its first
// byte (raw is a single value as json.Unmarshal delimits it): null,
// booleans, strings, and numbers — integers without a fraction or
// exponent that fit int64 become Int, every other number Float. Objects
// and arrays are rejected.
func decodeValue(raw json.RawMessage) (evidence.Value, error) {
	if len(raw) == 0 {
		return evidence.Null, io.EOF
	}
	switch c := raw[0]; {
	case string(raw) == "null":
		return evidence.Null, nil
	case c == 't' || c == 'f':
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return evidence.Null, err
		}
		return evidence.Bool(b), nil
	case c == '"':
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return evidence.Null, err
		}
		return evidence.String_(s), nil
	case c == '-' || ('0' <= c && c <= '9'):
		n := string(raw)
		if !strings.ContainsAny(n, ".eE") {
			if i, err := strconv.ParseInt(n, 10, 64); err == nil {
				return evidence.Int(i), nil
			}
		}
		f, err := strconv.ParseFloat(n, 64)
		if err != nil {
			return evidence.Null, err
		}
		return evidence.Float(f), nil
	default:
		return evidence.Null, fmt.Errorf("unsupported evidence value %s", string(raw))
	}
}

// ReadItems decodes NDJSON records from r into the channel until EOF or
// ctx-free termination, closing out on return. Blank lines are skipped.
// The first malformed line aborts the read with its error.
func ReadItems(r io.Reader, out chan<- Item) error {
	defer close(out)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var d itemDecoder
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		it, err := d.decode(line)
		if err != nil {
			return err
		}
		out <- it
	}
	return sc.Err()
}

// maxCachedKeys bounds the evidence keys an itemDecoder keeps expanded;
// a stream with more distinct keys expands the rest on every line.
const maxCachedKeys = 256

// itemDecoder decodes the NDJSON lines of one stream. A line of the
// strict common shape (see scan) decodes in one pass over its bytes,
// with evidence keys expanded once per stream; every other line goes to
// DecodeItem. Either way a line decodes to exactly what DecodeItem
// returns for it.
type itemDecoder struct {
	keys map[string]evidence.Key // raw key → expanded, at most maxCachedKeys
}

func (d *itemDecoder) decode(line []byte) (Item, error) {
	if it, ok := d.scan(line); ok {
		return it, nil
	}
	return DecodeItem(line)
}

// scan decodes line if it is an object whose members are a string "item"
// and an optional "evidence" object, in either order, each once. JSON
// whitespace may surround any token. Every string must be printable ASCII
// without escapes, every evidence value a JSON number, true, false, null
// or such a string, and no two evidence keys may name the same evidence
// type. It reports false for any other line, and for a line DecodeItem
// rejects. A line holding a byte no such line holds (a backslash, a
// control character other than JSON whitespace, or a non-ASCII byte) is
// turned away before any decoding.
func (d *itemDecoder) scan(b []byte) (Item, bool) {
	for _, c := range b {
		if c == '\\' || c > 0x7e || c < 0x20 && c != '\t' && c != '\r' && c != '\n' {
			return Item{}, false
		}
	}
	var it Item
	var haveItem, haveEvidence bool
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return Item{}, false
	}
	for i++; ; i++ {
		name, j, ok := scanString(b, skipSpace(b, i))
		if j = skipSpace(b, j); !ok || j >= len(b) || b[j] != ':' {
			return Item{}, false
		}
		switch string(name) {
		case "item":
			id, k, ok := scanString(b, skipSpace(b, j+1))
			if !ok || haveItem || len(bytes.TrimSpace(id)) == 0 {
				return Item{}, false
			}
			it.ID = evidence.Item(ontology.ExpandQName(string(id)))
			haveItem, i = true, k
		case "evidence":
			ev, k, ok := d.scanEvidence(b, skipSpace(b, j+1))
			if !ok || haveEvidence {
				return Item{}, false
			}
			it.Evidence = ev
			haveEvidence, i = true, k
		default:
			return Item{}, false
		}
		if i = skipSpace(b, i); i >= len(b) || b[i] != ',' {
			break
		}
	}
	if !haveItem || i >= len(b) || b[i] != '}' || skipSpace(b, i+1) != len(b) {
		return Item{}, false
	}
	return it, true
}

// scanEvidence scans the evidence object starting at b[i], returning its
// entries (nil for {}) and the index after its closing brace.
func (d *itemDecoder) scanEvidence(b []byte, i int) (map[evidence.Key]evidence.Value, int, bool) {
	if i >= len(b) || b[i] != '{' {
		return nil, 0, false
	}
	if j := skipSpace(b, i+1); j < len(b) && b[j] == '}' {
		return nil, j + 1, true
	}
	ev := make(map[evidence.Key]evidence.Value)
	nulls := 0
	for i++; ; i++ {
		name, j, ok := scanString(b, skipSpace(b, i))
		if j = skipSpace(b, j); !ok || j >= len(b) || b[j] != ':' {
			return nil, 0, false
		}
		v, k, ok := scanValue(b, skipSpace(b, j+1))
		if !ok {
			return nil, 0, false
		}
		key := d.key(name)
		if _, dup := ev[key]; dup {
			return nil, 0, false
		}
		ev[key] = v
		if v.IsNull() {
			nulls++
		}
		if i = skipSpace(b, k); i >= len(b) || b[i] != ',' {
			break
		}
	}
	if i >= len(b) || b[i] != '}' {
		return nil, 0, false
	}
	// Nulls are kept until every key is checked for aliases.
	if nulls > 0 {
		for key, v := range ev {
			if v.IsNull() {
				delete(ev, key)
			}
		}
		if len(ev) == 0 {
			ev = nil
		}
	}
	return ev, i + 1, true
}

// skipSpace returns the index of the first byte at or after b[i] that is
// not JSON whitespace (space, tab, CR or LF).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// key expands an evidence key through the decoder's cache.
func (d *itemDecoder) key(name []byte) evidence.Key {
	if k, ok := d.keys[string(name)]; ok {
		return k
	}
	k := ontology.ExpandQName(string(name))
	if len(d.keys) < maxCachedKeys {
		if d.keys == nil {
			d.keys = make(map[string]evidence.Key)
		}
		d.keys[string(name)] = k
	}
	return k
}

// scanString scans a string of printable ASCII without escapes starting
// at b[i], returning its contents and the index after its closing quote.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanValue scans an evidence value starting at b[i], returning it and
// the index after it. A number must follow the JSON grammar and
// convert as decodeValue converts it.
func scanValue(b []byte, i int) (evidence.Value, int, bool) {
	if i >= len(b) {
		return evidence.Null, 0, false
	}
	switch c := b[i]; {
	case c == '"':
		s, j, ok := scanString(b, i)
		return evidence.String_(string(s)), j, ok
	case bytes.HasPrefix(b[i:], []byte("true")):
		return evidence.Bool(true), i + 4, true
	case bytes.HasPrefix(b[i:], []byte("false")):
		return evidence.Bool(false), i + 5, true
	case bytes.HasPrefix(b[i:], []byte("null")):
		return evidence.Null, i + 4, true
	case c == '-' || '0' <= c && c <= '9':
		j, ok := scanNumber(b, i)
		if !ok {
			return evidence.Null, 0, false
		}
		v, err := decodeValue(b[i:j])
		return v, j, err == nil
	default:
		return evidence.Null, 0, false
	}
}

// scanNumber returns the index after the JSON number starting at b[i]:
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	return i, true
}

// digits returns the index of the first non-digit at or after b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// WriteResults encodes window results as NDJSON — one decision object per
// line, interleaved with one window-summary line per window (after its
// decisions). If w implements http.Flusher-style flushing via the flush
// callback, each window is flushed as soon as it is written, so consumers
// see decisions while the input stream is still open. After the first
// write error it keeps draining results, so the producer never blocks on
// a dead writer, and returns that error once results is closed.
func WriteResults(w io.Writer, results <-chan WindowResult, flush func()) error {
	enc := json.NewEncoder(w)
	var err error
	for res := range results {
		if err != nil {
			continue
		}
		if err = writeResult(enc, res); err == nil && flush != nil {
			flush()
		}
	}
	return err
}

// writeResult encodes one window's decisions and its summary line.
func writeResult(enc *json.Encoder, res WindowResult) error {
	for _, d := range res.Decisions {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	summary := struct {
		Window     int                    `json:"window"`
		View       string                 `json:"view,omitempty"`
		Size       int                    `json:"size"`
		Decided    int                    `json:"decided"`
		Partial    bool                   `json:"partial,omitempty"`
		Failed     bool                   `json:"failed,omitempty"`
		Replayed   bool                   `json:"replayed,omitempty"`
		Kind       string                 `json:"kind,omitempty"`
		Start      int64                  `json:"start,omitempty"`
		End        int64                  `json:"end,omitempty"`
		Late       bool                   `json:"late,omitempty"`
		Supersedes string                 `json:"supersedes,omitempty"`
		Error      string                 `json:"error,omitempty"`
		Stats      map[string]WindowStats `json:"stats,omitempty"`
	}{res.Seq, res.View, res.Size, len(res.Decisions), res.Partial, res.Failed, res.Replayed,
		res.Kind, res.Start, res.End, res.Late, res.Supersedes, res.Error, res.Stats}
	return enc.Encode(summary)
}

package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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

// DecodeItem parses one NDJSON line into a stream Item.
func DecodeItem(line []byte) (Item, error) {
	var w wireItem
	if err := json.Unmarshal(line, &w); err != nil {
		return Item{}, fmt.Errorf("stream: bad NDJSON item: %w", err)
	}
	if strings.TrimSpace(w.Item) == "" {
		return Item{}, fmt.Errorf("stream: NDJSON item record lacks \"item\"")
	}
	it := Item{ID: evidence.Item(ontology.ExpandQName(w.Item))}
	for key, raw := range w.Evidence {
		v, err := decodeValue(raw)
		if err != nil {
			return Item{}, fmt.Errorf("stream: evidence %q: %w", key, err)
		}
		if v.IsNull() {
			continue
		}
		if it.Evidence == nil {
			it.Evidence = make(map[evidence.Key]evidence.Value, len(w.Evidence))
		}
		it.Evidence[ontology.ExpandQName(key)] = v
	}
	return it, nil
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
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		it, err := DecodeItem([]byte(line))
		if err != nil {
			return err
		}
		out <- it
	}
	return sc.Err()
}

// WriteResults encodes window results as NDJSON — one decision object per
// line, interleaved with one window-summary line per window (after its
// decisions). If w implements http.Flusher-style flushing via the flush
// callback, each window is flushed as soon as it is written, so consumers
// see decisions while the input stream is still open.
func WriteResults(w io.Writer, results <-chan WindowResult, flush func()) error {
	enc := json.NewEncoder(w)
	for res := range results {
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
		if err := enc.Encode(summary); err != nil {
			return err
		}
		if flush != nil {
			flush()
		}
	}
	return nil
}

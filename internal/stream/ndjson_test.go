package stream

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// workloadLines renders n NDJSON items shaped like the end-to-end
// benchmark's inline evidence: an LSID, two 4-digit fractions and two
// small counts.
func workloadLines(n int) []byte {
	return renderLines(n, `{"item":"urn:lsid:bench.qurator.org:s0:%d","evidence":{"q:HitRatio":%.4f,"q:Coverage":%.4f,"q:Masses":%d,"q:PeptidesCount":%d}}`)
}

// spacedLines renders workloadLines as Python's json.dumps writes them by
// default, with ", " and ": " separators.
func spacedLines(n int) []byte {
	return renderLines(n, `{"item": "urn:lsid:bench.qurator.org:s0:%d", "evidence": {"q:HitRatio": %.4f, "q:Coverage": %.4f, "q:Masses": %d, "q:PeptidesCount": %d}}`)
}

// escapedLines renders workloadLines with the item last and an "&" in it,
// escaped as Go's encoding/json writes it. The scanner takes no escapes,
// so every line falls back to DecodeItem, and only at its end.
func escapedLines(n int) []byte {
	return renderLines(n, `{"evidence":{"q:HitRatio":%.4[2]f,"q:Coverage":%.4f,"q:Masses":%d,"q:PeptidesCount":%d},"item":"urn:lsid:bench.qurator.org:s0\u0026r:%[1]d"}`)
}

func renderLines(n int, format string) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		h := uint64(i+1) * 0x9e3779b97f4a7c15
		fmt.Fprintf(&b, format+"\n", i, float64(h%10000)/10000, float64((h/10000)%10000)/10000, (h/100000000)%40, (h/4000000000)%12)
	}
	return b.Bytes()
}

// lineShapes names the line renderings the read-path tests and benchmark
// cover.
var lineShapes = []struct {
	name  string
	lines func(n int) []byte
}{{"compact", workloadLines}, {"spaced", spacedLines}, {"escaped", escapedLines}}

// readAll runs ReadItems over data with a concurrent consumer, as the
// stream handler runs it, and returns the number of items read.
func readAll(data []byte) (int, error) {
	out := make(chan Item, 64)
	done := make(chan int)
	go func() {
		n := 0
		for range out {
			n++
		}
		done <- n
	}()
	err := ReadItems(bytes.NewReader(data), out)
	return <-done, err
}

// TestScanAcceptsWorkloadLines checks that the benchmark's line shape,
// compact or spaced, takes the scanner path and decodes as DecodeItem
// decodes it, and that an escaped line does not.
func TestScanAcceptsWorkloadLines(t *testing.T) {
	var d itemDecoder
	for _, shape := range lineShapes {
		for _, line := range bytes.Split(bytes.TrimSpace(shape.lines(50)), []byte("\n")) {
			got, ok := d.scan(line)
			if ok != (shape.name != "escaped") {
				t.Fatalf("%s: scan accepted %v", line, ok)
			}
			want, err := DecodeItem(line)
			if err != nil || ok && !sameItem(got, want) {
				t.Fatalf("%s: scan %v, DecodeItem (%v, %v)", line, got, want, err)
			}
		}
	}
}

// TestItemDecoderKeyCacheBound: a stream with more distinct evidence keys
// than the cache holds keeps the cache at its bound and still decodes
// every line as DecodeItem does.
func TestItemDecoderKeyCacheBound(t *testing.T) {
	var d itemDecoder
	for i := 0; i < maxCachedKeys+50; i++ {
		line := []byte(fmt.Sprintf(`{"item":"urn:a:%d","evidence":{"q:K%d":%d,"q:Shared":true}}`, i, i, i))
		got, err := d.decode(line)
		want, werr := DecodeItem(line)
		if err != nil || werr != nil || !sameItem(got, want) {
			t.Fatalf("%s: stream decoder (%v, %v), DecodeItem (%v, %v)", line, got, err, want, werr)
		}
	}
	if len(d.keys) != maxCachedKeys {
		t.Fatalf("key cache holds %d keys, want %d", len(d.keys), maxCachedKeys)
	}
}

// TestDecodeItemAliasKeys: "q:HitRatio" and its full IRI name one
// evidence type. DecodeItem used to keep whichever a map range visited
// last; it now rejects the line the same way on every decode.
func TestDecodeItemAliasKeys(t *testing.T) {
	line := []byte(`{"item":"urn:a","evidence":{"q:HitRatio":0.5,"http://qurator.org/iq#HitRatio":7}}`)
	_, first := DecodeItem(line)
	if first == nil || !strings.Contains(first.Error(), `"q:HitRatio"`) {
		t.Fatalf("DecodeItem(%s) = %v, want an error naming \"q:HitRatio\"", line, first)
	}
	for i := 0; i < 200; i++ {
		if _, err := DecodeItem(line); err == nil || err.Error() != first.Error() {
			t.Fatalf("decode %d: %v, want %v", i, err, first)
		}
	}
	var d itemDecoder
	if _, err := d.decode(line); err == nil || err.Error() != first.Error() {
		t.Fatalf("stream decoder: %v, want %v", err, first)
	}
}

// TestReadItemsAllocs bounds the per-line cost of the read path on the
// benchmark's line shape, compact or spaced: the item string and the
// evidence map, with keys expanded once per stream (30 allocations and
// 3038 B per line when every line went through encoding/json).
func TestReadItemsAllocs(t *testing.T) {
	const lines = 1000
	for _, render := range []func(int) []byte{workloadLines, spacedLines} {
		data := render(lines)
		allocs, bytes := 1e9, 1e9
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, err := readAll(data)
			runtime.ReadMemStats(&after)
			if err != nil || n != lines {
				t.Fatalf("read %d items, %v", n, err)
			}
			allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/lines)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/lines)
		}
		if allocs > 4 || bytes > 1536 {
			t.Fatalf("ReadItems costs %.2f allocations and %.0f B per line of %.40s..., want <= 4 and <= 1536", allocs, bytes, data)
		}
	}
}

// BenchmarkReadItems decodes 1000 benchmark-shaped lines per operation,
// in each line shape, and reports the cost per line.
func BenchmarkReadItems(b *testing.B) {
	for _, shape := range lineShapes {
		b.Run(shape.name, func(b *testing.B) { benchmarkReadItems(b, shape.lines(1000), 1000) })
	}
}

func benchmarkReadItems(b *testing.B, data []byte, lines int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if got, err := readAll(data); err != nil || got != lines {
			b.Fatalf("read %d items, %v", got, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(lines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/line")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/line")
}

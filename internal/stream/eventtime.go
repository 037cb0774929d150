package stream

import (
	"fmt"
	"math"
	"time"

	"qurator/internal/evidence"
)

// Event-time window kinds, carried on WindowResult.Kind.
const (
	KindTumbling = "tumbling"
	KindSliding  = "sliding"
	KindSession  = "session"
)

// Event times lie within 2⁶² ns (146 years) of the Unix epoch, and a
// window width, session gap, out-of-order bound or lateness is at most
// 2⁶⁰ ns (36 years), or 2⁶⁰ items for a count window. A clock plus the
// spans the windower adds to it — a window's end plus its retention, at
// most four slides for count windows — then stays below 2⁶³: a wrapped
// clock would poison the watermark.
const (
	maxEventNanos = 1 << 62
	maxSpan       = 1 << 60
)

var minEventTime, maxEventTime = time.Unix(0, -maxEventNanos), time.Unix(0, maxEventNanos)

// eventTimeOf extracts an item's event time, in Unix nanoseconds, from
// its declared evidence value: a number is unix milliseconds, a string
// RFC 3339.
func eventTimeOf(v evidence.Value) (int64, error) {
	if ms, ok := v.AsFloat(); ok {
		if !(math.Abs(ms) <= maxEventNanos/1e6) { // NaN fails too
			return 0, fmt.Errorf("%s is outside 1823-11-12 – 2116-02-20", v)
		}
		return int64(ms) * 1e6, nil
	}
	t, err := time.Parse(time.RFC3339Nano, v.AsString())
	if err != nil {
		return 0, fmt.Errorf("not a unix-millisecond or RFC 3339 timestamp: %s", v)
	}
	if t.Before(minEventTime) || t.After(maxEventTime) {
		return 0, fmt.Errorf("%s is outside 1823-11-12 – 2116-02-20", v)
	}
	return t.UnixNano(), nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

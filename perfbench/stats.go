package main

import (
	"math"
	"sort"

	"qurator/internal/telemetry"
)

// minTail is the sample-count rule for percentiles: a percentile is
// reported as supported only when at least this many samples lie beyond
// it, so p99 needs 1000 samples and p50 needs 20.
const minTail = 10

// tailSupported reports whether n samples leave at least minTail samples
// beyond the q-quantile.
func tailSupported(n int, q float64) bool {
	return math.Floor(float64(n)*(1-q)+1e-9) >= minTail
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// dist summarises one timing sample: count, median, p99 and total in the
// sample's own unit.
type dist struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	Sum float64 `json:"sum"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	d.P50 = quantile(xs, 0.50)
	d.P99 = quantile(xs, 0.99)
	for _, x := range xs {
		d.Sum += x
	}
	return d
}

// interval is a half-open time span [Start, End) in unix nanoseconds.
// Wall-clock nanoseconds are comparable across the generator and SUT
// processes on one machine.
type interval struct {
	Start int64 `json:"s"`
	End   int64 `json:"e"`
}

func (iv interval) len() int64 {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// union merges overlapping or touching intervals into a sorted, disjoint
// list. The input is not modified.
func union(ivs []interval) []interval {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.len() > 0 {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].Start < s[b].Start })
	out := s[:0]
	for _, iv := range s {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered returns how much of span the disjoint sorted intervals cover.
func covered(span interval, disjoint []interval) int64 {
	var n int64
	i := sort.Search(len(disjoint), func(i int) bool { return disjoint[i].End > span.Start })
	for ; i < len(disjoint) && disjoint[i].Start < span.End; i++ {
		s, e := max(disjoint[i].Start, span.Start), min(disjoint[i].End, span.End)
		if e > s {
			n += e - s
		}
	}
	return n
}

// selfTime is a span's duration minus the part of it its children cover;
// overlapping children count once.
func selfTime(span interval, children []interval) int64 {
	return span.len() - covered(span, union(children))
}

// uncovered sums, over every span, the time no cover interval covers —
// the generator's request time that no SUT span accounts for.
func uncovered(spans, cover []interval) int64 {
	u := union(cover)
	var n int64
	for _, s := range spans {
		n += s.len() - covered(s, u)
	}
	return n
}

// histQuantile estimates the q-quantile of a histogram series from its
// cumulative buckets by linear interpolation inside the bucket holding
// the rank; a rank in the +Inf bucket reads as the largest finite bound.
// The estimate is only as fine as the program's bucket layout.
func histQuantile(buckets []telemetry.BucketCount, count uint64, q float64) float64 {
	if count == 0 || len(buckets) == 0 {
		return 0
	}
	rank := q * float64(count)
	lo, prev := 0.0, uint64(0)
	for _, b := range buckets {
		if float64(b.Count) >= rank {
			in := b.Count - prev
			if in == 0 {
				return b.UpperBound
			}
			return lo + (b.UpperBound-lo)*(rank-float64(prev))/float64(in)
		}
		lo, prev = b.UpperBound, b.Count
	}
	return buckets[len(buckets)-1].UpperBound
}

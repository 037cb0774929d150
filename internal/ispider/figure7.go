package ispider

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Figure7Row is one GO term's entry in the paper's Figure 7: its
// occurrence counts with and without quality filtering, and the
// significance ratio the figure ranks by.
type Figure7Row struct {
	TermID string
	// Original is the term's occurrence count over the unfiltered
	// identifications.
	Original int
	// Filtered is the count after the quality view's filter.
	Filtered int
	// Ratio is Filtered/Original — "a high ratio indicates that the GO
	// term is relatively unaffected by the filtering, and thus it is
	// representative of high-quality proteins" (§6.3).
	Ratio float64
	// OriginalRank and RatioRank are the term's 1-based positions in the
	// frequency ranking and the ratio ranking.
	OriginalRank int
	RatioRank    int
}

// Figure7Result is the complete reproduction of the paper's Figure 7
// experiment.
type Figure7Result struct {
	Rows []Figure7Row
	// TotalOriginal and TotalFiltered are the summed occurrence counts
	// (the paper reports "about 500" original occurrences for 10 spots).
	TotalOriginal, TotalFiltered int
	// IdentificationsOriginal/Kept count protein IDs before/after filter.
	IdentificationsOriginal, IdentificationsKept int
	// RankDisplacement is the mean |OriginalRank − RatioRank| over terms
	// that survive filtering — how much the quality view "significantly
	// alters the original ranking".
	RankDisplacement float64
}

// Figure7Timings is the per-phase wall-clock breakdown of a Figure-7
// run, for the benchmark record cmd/experiment writes.
type Figure7Timings struct {
	// Baseline is the unfiltered Figure-1 analysis run.
	Baseline time.Duration
	// QualityEnactment covers compiling the view, embedding it into the
	// host pipeline and enacting the filtered run.
	QualityEnactment time.Duration
	// Ranking is the GO-term ranking computation over both runs.
	Ranking time.Duration
}

// RunFigure7Timed reproduces the §6.3 experiment: the 10-spot experiment is
// analysed once through the plain Figure 1 workflow and once with the
// embedded quality view whose filter keeps only top-quality protein IDs
// (score above avg + stddev, i.e. class q:high), then GO terms are ranked
// by the kept/original occurrence ratio. It also reports how long each
// phase took.
func RunFigure7Timed(world *World) (*Figure7Result, *Figure7Timings, error) {
	t := &Figure7Timings{}
	began := time.Now()
	baseline, err := RunBaseline(world)
	if err != nil {
		return nil, nil, err
	}
	t.Baseline = time.Since(began)

	began = time.Now()
	pipeline, err := BuildPipeline(world, "")
	if err != nil {
		return nil, nil, err
	}
	// §6.3: "a filter action set to save only the top quality protein
	// IDs, i.e., those with a score higher than the average + standard
	// deviation" — exactly class q:high of the three-way classifier.
	if err := pipeline.Compiled.SetFilterCondition("filter top k score", "ScoreClass in q:high"); err != nil {
		return nil, nil, err
	}
	filtered, err := pipeline.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	t.QualityEnactment = time.Since(began)

	began = time.Now()
	res := BuildFigure7(baseline, filtered)
	t.Ranking = time.Since(began)
	return res, t, nil
}

// BuildFigure7 computes the figure from a baseline and a filtered run.
func BuildFigure7(baseline, filtered *RunOutput) *Figure7Result {
	res := &Figure7Result{
		IdentificationsOriginal: len(baseline.Accepted.Items()),
		IdentificationsKept:     len(filtered.Accepted.Items()),
	}
	terms := make([]string, 0, len(baseline.TermCounts))
	for term := range baseline.TermCounts {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	for _, term := range terms {
		orig := baseline.TermCounts[term]
		kept := filtered.TermCounts[term]
		row := Figure7Row{TermID: term, Original: orig, Filtered: kept}
		if orig > 0 {
			row.Ratio = float64(kept) / float64(orig)
		}
		res.Rows = append(res.Rows, row)
		res.TotalOriginal += orig
		res.TotalFiltered += kept
	}
	// Frequency ranking (descending original count, stable by term ID).
	byFreq := make([]int, len(res.Rows))
	for i := range byFreq {
		byFreq[i] = i
	}
	sort.SliceStable(byFreq, func(a, b int) bool {
		return res.Rows[byFreq[a]].Original > res.Rows[byFreq[b]].Original
	})
	for rank, i := range byFreq {
		res.Rows[i].OriginalRank = rank + 1
	}
	// Ratio ranking (descending ratio; ties broken by filtered count then
	// term ID for determinism).
	byRatio := make([]int, len(res.Rows))
	for i := range byRatio {
		byRatio[i] = i
	}
	sort.SliceStable(byRatio, func(a, b int) bool {
		ra, rb := res.Rows[byRatio[a]], res.Rows[byRatio[b]]
		if ra.Ratio != rb.Ratio {
			return ra.Ratio > rb.Ratio
		}
		return ra.Filtered > rb.Filtered
	})
	for rank, i := range byRatio {
		res.Rows[i].RatioRank = rank + 1
	}
	// Present rows in ratio order, as the figure does.
	sort.SliceStable(res.Rows, func(a, b int) bool {
		return res.Rows[a].RatioRank < res.Rows[b].RatioRank
	})
	// Mean displacement over surviving terms.
	n, sum := 0, 0
	for _, row := range res.Rows {
		if row.Filtered == 0 {
			continue
		}
		d := row.OriginalRank - row.RatioRank
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n > 0 {
		res.RankDisplacement = float64(sum) / float64(n)
	}
	return res
}

// Format renders the figure as the text table cmd/experiment prints.
func (r *Figure7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — effect of the quality view on the GO-term ranking\n")
	fmt.Fprintf(&b, "identifications: %d -> %d after filtering\n",
		r.IdentificationsOriginal, r.IdentificationsKept)
	fmt.Fprintf(&b, "GO-term occurrences: %d -> %d\n", r.TotalOriginal, r.TotalFiltered)
	fmt.Fprintf(&b, "mean |rank shift| of surviving terms: %.2f\n\n", r.RankDisplacement)
	fmt.Fprintf(&b, "%-14s %9s %9s %7s %9s %9s\n",
		"GO term", "original", "filtered", "ratio", "freq-rank", "sig-rank")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %9d %9d %7.3f %9d %9d\n",
			row.TermID, row.Original, row.Filtered, row.Ratio, row.OriginalRank, row.RatioRank)
	}
	return b.String()
}

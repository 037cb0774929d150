// Package imprint implements the protein mass fingerprinting (PMF)
// identification tool of the running example — the paper's in-house
// "Imprint" (§1.1). Given a peak list and a reference protein database,
// it reports a ranked list of candidate identifications, each carrying
// the two quality indicators the quality view consumes:
//
//   - Hit Ratio (HR): the fraction of spectrum peaks matched by the
//     candidate's theoretical digest — "an indication of the signal to
//     noise ratio in a mass spectrum";
//   - Mass Coverage (MC): the fraction of the candidate's sequence
//     covered by matched peptides — "the amount of protein sequence
//     matched" (Stead, Preece & Brown [20]).
//
// Like MASCOT and other PMF engines, Imprint can and does return false
// positives: random peak/peptide coincidences score non-zero, and the
// correct identification is not always ranked first — precisely the
// uncertainty quality views are designed to expose.
package imprint

import (
	"fmt"
	"math"
	"sort"

	"qurator/internal/proteomics"
)

// Params configures a search.
type Params struct {
	// TolerancePPM is the peak-matching mass tolerance (ppm).
	TolerancePPM float64
	// MissedCleavages allowed in the theoretical digest.
	MissedCleavages int
	// MinPeptideLen for the theoretical digest.
	MinPeptideLen int
	// MaxHits caps the number of reported identifications (0 = all with
	// at least MinPeptides matches).
	MaxHits int
	// MinPeptides is the minimum number of matched peptides for a
	// candidate to be reported (default 2).
	MinPeptides int
}

// DefaultParams mirrors a typical PMF search configuration.
func DefaultParams() Params {
	return Params{
		TolerancePPM:    100,
		MissedCleavages: 1,
		MinPeptideLen:   6,
		MaxHits:         10,
		MinPeptides:     2,
	}
}

// Hit is one candidate identification.
type Hit struct {
	// Rank is the 1-based position in the result list.
	Rank int
	// Protein is the matched reference entry.
	Protein proteomics.Protein
	// Score is Imprint's native ranking score.
	Score float64
	// HitRatio is matched peaks / total peaks (HR).
	HitRatio float64
	// MassCoverage is covered residues / sequence length (MC).
	MassCoverage float64
	// MatchedPeptides is the number of distinct theoretical peptides
	// matched by at least one peak.
	MatchedPeptides int
	// MatchedPeaks is the number of spectrum peaks matched by at least
	// one theoretical peptide.
	MatchedPeaks int
}

// Result is the output of one search: the ranked identification list for
// one peak list.
type Result struct {
	SpotID string
	// PeakCount is the size of the searched spectrum.
	PeakCount int
	Hits      []Hit
}

// digestIndex caches a protein's theoretical peptide masses.
type digestIndex struct {
	protein  proteomics.Protein
	peptides []proteomics.Peptide
	mzs      []float64
}

// Engine is a PMF search engine over a fixed reference database. Engines
// are safe for concurrent searches once built.
type Engine struct {
	params  Params
	indexes []digestIndex
}

// NewEngine digests the reference database once and returns a reusable
// engine.
func NewEngine(db []proteomics.Protein, params Params) (*Engine, error) {
	if params.TolerancePPM <= 0 {
		return nil, fmt.Errorf("imprint: non-positive mass tolerance")
	}
	if params.MinPeptides <= 0 {
		params.MinPeptides = 2
	}
	e := &Engine{params: params, indexes: make([]digestIndex, 0, len(db))}
	for _, prot := range db {
		if err := prot.Validate(); err != nil {
			return nil, err
		}
		peps := proteomics.Digest(prot.Sequence, params.MissedCleavages, params.MinPeptideLen)
		idx := digestIndex{protein: prot, peptides: peps, mzs: make([]float64, len(peps))}
		for i, pep := range peps {
			idx.mzs[i] = pep.MZ()
		}
		e.indexes = append(e.indexes, idx)
	}
	return e, nil
}

// Search matches a peak list against the reference database and returns
// ranked identifications.
func (e *Engine) Search(pl proteomics.PeakList) Result {
	res := Result{SpotID: pl.SpotID, PeakCount: len(pl.Peaks)}
	if len(pl.Peaks) == 0 {
		return res
	}
	mzs := pl.MZValues()
	sort.Float64s(mzs)

	for _, idx := range e.indexes {
		hit := e.match(idx, mzs)
		if hit.MatchedPeptides < e.params.MinPeptides {
			continue
		}
		res.Hits = append(res.Hits, hit)
	}
	// Rank by score descending; break ties by accession for determinism.
	sort.Slice(res.Hits, func(i, j int) bool {
		if res.Hits[i].Score != res.Hits[j].Score {
			return res.Hits[i].Score > res.Hits[j].Score
		}
		return res.Hits[i].Protein.Accession < res.Hits[j].Protein.Accession
	})
	if e.params.MaxHits > 0 && len(res.Hits) > e.params.MaxHits {
		res.Hits = res.Hits[:e.params.MaxHits]
	}
	for i := range res.Hits {
		res.Hits[i].Rank = i + 1
	}
	return res
}

// match computes the hit statistics of one candidate against a sorted
// peak m/z list.
func (e *Engine) match(idx digestIndex, sortedMZs []float64) Hit {
	matchedPeaks := map[int]bool{}
	covered := make([]bool, len(idx.protein.Sequence))
	matchedPeptides := 0
	for i, pepMZ := range idx.mzs {
		tol := pepMZ * e.params.TolerancePPM / 1e6
		lo := sort.SearchFloat64s(sortedMZs, pepMZ-tol)
		matched := false
		for j := lo; j < len(sortedMZs) && sortedMZs[j] <= pepMZ+tol; j++ {
			matchedPeaks[j] = true
			matched = true
		}
		if matched {
			matchedPeptides++
			pep := idx.peptides[i]
			for k := pep.Start; k < pep.Start+len(pep.Sequence) && k < len(covered); k++ {
				covered[k] = true
			}
		}
	}
	coveredCount := 0
	for _, c := range covered {
		if c {
			coveredCount++
		}
	}
	hit := Hit{
		Protein:         idx.protein,
		MatchedPeptides: matchedPeptides,
		MatchedPeaks:    len(matchedPeaks),
	}
	if len(sortedMZs) > 0 {
		hit.HitRatio = float64(len(matchedPeaks)) / float64(len(sortedMZs))
	}
	if len(covered) > 0 {
		hit.MassCoverage = float64(coveredCount) / float64(len(covered))
	}
	// Native score: a MOWSE-flavoured combination — matched peptides
	// weighted by coverage, normalised against database size so larger
	// databases don't inflate scores.
	hit.Score = float64(matchedPeptides) * (1 + hit.MassCoverage) *
		math.Log1p(float64(len(sortedMZs))) / math.Log1p(float64(len(e.indexes)))
	return hit
}

package imprint

import (
	"math/rand"
	"testing"

	"qurator/internal/proteomics"
)

// world builds a reference database and a spectrum containing the first
// protein (plus optional noise), with a fixed seed for reproducibility.
func world(t testing.TB, dbSize, noisePeaks int) ([]proteomics.Protein, proteomics.PeakList) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	db := proteomics.RandomDatabase(dbSize, 200, 400, rng)
	params := proteomics.SpectrumParams{
		PeptideDetectionProb: 0.9,
		MassErrorPPM:         20,
		NoisePeaks:           noisePeaks,
		NoiseMZMin:           500,
		NoiseMZMax:           3500,
		MissedCleavages:      1,
		MinPeptideLen:        6,
	}
	pl := proteomics.SynthesizeSpectrum("spot1", []proteomics.Protein{db[0]}, params, rng)
	return db, pl
}

func TestSearchFindsTrueProtein(t *testing.T) {
	db, pl := world(t, 50, 10)
	eng, err := NewEngine(db, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Search(pl)
	if len(res.Hits) == 0 {
		t.Fatal("no hits at all")
	}
	if res.Hits[0].Protein.Accession != db[0].Accession {
		t.Errorf("top hit = %s, want %s (true protein)", res.Hits[0].Protein.Accession, db[0].Accession)
	}
	top := res.Hits[0]
	if top.Rank != 1 {
		t.Errorf("top rank = %d", top.Rank)
	}
	if top.HitRatio <= 0 || top.HitRatio > 1 {
		t.Errorf("HR = %v out of (0,1]", top.HitRatio)
	}
	if top.MassCoverage <= 0 || top.MassCoverage > 1 {
		t.Errorf("MC = %v out of (0,1]", top.MassCoverage)
	}
	if res.SpotID != "spot1" || res.PeakCount != len(pl.Peaks) {
		t.Errorf("result metadata: %+v", res)
	}
}

func TestSearchProducesFalsePositives(t *testing.T) {
	// With a sizeable database, random coincidences produce additional
	// (false) hits — the uncertainty the paper's quality views target.
	db, pl := world(t, 200, 25)
	eng, err := NewEngine(db, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Search(pl)
	if len(res.Hits) < 2 {
		t.Skip("this seed produced no false positives; acceptable but uninformative")
	}
	falseHits := 0
	for _, h := range res.Hits {
		if h.Protein.Accession != db[0].Accession {
			falseHits++
		}
	}
	if falseHits == 0 {
		t.Error("expected at least one false positive among the hits")
	}
	// True protein outranks the coincidences in HR.
	var trueHR, maxFalseHR float64
	for _, h := range res.Hits {
		if h.Protein.Accession == db[0].Accession {
			trueHR = h.HitRatio
		} else if h.HitRatio > maxFalseHR {
			maxFalseHR = h.HitRatio
		}
	}
	if trueHR <= maxFalseHR {
		t.Errorf("true protein HR %v should exceed false-positive HR %v", trueHR, maxFalseHR)
	}
}

func TestHitRatioReflectsNoise(t *testing.T) {
	// More noise peaks → lower HR for the true protein (HR is the
	// signal-to-noise indicator).
	dbClean, plClean := world(t, 30, 0)
	eng, err := NewEngine(dbClean, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cleanHR := eng.Search(plClean).Hits[0].HitRatio

	_, plNoisy := world(t, 30, 60)
	noisyRes := eng.Search(plNoisy)
	if len(noisyRes.Hits) == 0 {
		t.Fatal("no hits in noisy spectrum")
	}
	noisyHR := noisyRes.Hits[0].HitRatio
	if noisyHR >= cleanHR {
		t.Errorf("HR should drop with noise: clean %v, noisy %v", cleanHR, noisyHR)
	}
}

func TestRankingDeterministic(t *testing.T) {
	db, pl := world(t, 100, 20)
	eng, err := NewEngine(db, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Search(pl)
	for i := 0; i < 3; i++ {
		again := eng.Search(pl)
		if len(again.Hits) != len(first.Hits) {
			t.Fatal("hit count changed between runs")
		}
		for j := range first.Hits {
			if first.Hits[j].Protein.Accession != again.Hits[j].Protein.Accession {
				t.Fatal("ranking not deterministic")
			}
		}
	}
}

func TestMaxHitsAndMinPeptides(t *testing.T) {
	db, pl := world(t, 200, 40)
	params := DefaultParams()
	params.MaxHits = 3
	eng, err := NewEngine(db, params)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Search(pl)
	if len(res.Hits) > 3 {
		t.Errorf("MaxHits not honoured: %d hits", len(res.Hits))
	}
	for _, h := range res.Hits {
		if h.MatchedPeptides < params.MinPeptides {
			t.Errorf("hit %s with %d matched peptides below MinPeptides %d",
				h.Protein.Accession, h.MatchedPeptides, params.MinPeptides)
		}
	}
	// Ranks are 1..n.
	for i, h := range res.Hits {
		if h.Rank != i+1 {
			t.Errorf("rank %d at index %d", h.Rank, i)
		}
	}
}

func TestEmptySpectrum(t *testing.T) {
	db, _ := world(t, 10, 0)
	eng, err := NewEngine(db, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Search(proteomics.PeakList{SpotID: "empty"})
	if len(res.Hits) != 0 {
		t.Errorf("empty spectrum produced %d hits", len(res.Hits))
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, Params{TolerancePPM: 0}); err == nil {
		t.Error("zero tolerance should be rejected")
	}
	bad := []proteomics.Protein{{Accession: "P1", Sequence: "ZZZ"}}
	if _, err := NewEngine(bad, DefaultParams()); err == nil {
		t.Error("invalid protein should be rejected")
	}
	eng, err := NewEngine(proteomics.RandomDatabase(5, 100, 200, rand.New(rand.NewSource(1))), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.indexes) != 5 {
		t.Errorf("engine indexes %d proteins, want 5", len(eng.indexes))
	}
}

func TestToleranceWidensMatches(t *testing.T) {
	db, pl := world(t, 50, 10)
	tight, err := NewEngine(db, Params{TolerancePPM: 5, MissedCleavages: 1, MinPeptideLen: 6, MinPeptides: 1})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := NewEngine(db, Params{TolerancePPM: 500, MissedCleavages: 1, MinPeptideLen: 6, MinPeptides: 1})
	if err != nil {
		t.Fatal(err)
	}
	nTight := len(tight.Search(pl).Hits)
	nLoose := len(loose.Search(pl).Hits)
	if nLoose < nTight {
		t.Errorf("loose tolerance found fewer hits (%d) than tight (%d)", nLoose, nTight)
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := proteomics.RandomDatabase(200, 200, 400, rng)
	pl := proteomics.SynthesizeSpectrum("s", []proteomics.Protein{db[0]},
		proteomics.DefaultSpectrumParams(), rng)
	eng, err := NewEngine(db, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Search(pl)
	}
}

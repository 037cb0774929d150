// Package proteomics implements the wet-lab substrate that the Qurator
// running example depends on (paper §1.1): proteins, in-silico tryptic
// digestion, peptide mass computation, and synthetic mass-spectrometry
// peak lists with the error sources the paper names — biological
// contamination, technological noise, and incomplete measurements — under
// experimenter control, so that the Figure 7 experiment has a known
// ground truth.
package proteomics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// monoisotopicResidue maps amino-acid single-letter codes to their
// monoisotopic residue masses (Da).
var monoisotopicResidue = map[byte]float64{
	'G': 57.02146, 'A': 71.03711, 'S': 87.03203, 'P': 97.05276,
	'V': 99.06841, 'T': 101.04768, 'C': 103.00919, 'L': 113.08406,
	'I': 113.08406, 'N': 114.04293, 'D': 115.02694, 'Q': 128.05858,
	'K': 128.09496, 'E': 129.04259, 'M': 131.04049, 'H': 137.05891,
	'F': 147.06841, 'R': 156.10111, 'Y': 163.06333, 'W': 186.07931,
}

// Physical constants (Da).
const (
	WaterMass  = 18.010565
	ProtonMass = 1.007276
)

// Residues is the amino-acid alphabet in a fixed order.
const Residues = "ACDEFGHIKLMNPQRSTVWY"

// Protein is a reference-database entry.
type Protein struct {
	// Accession is the database accession number (e.g. "P30089").
	Accession string
	// Name is a human-readable description.
	Name string
	// Sequence is the amino-acid sequence (single-letter codes).
	Sequence string
}

// Validate checks the sequence alphabet.
func (p Protein) Validate() error {
	if p.Accession == "" {
		return fmt.Errorf("proteomics: protein without accession")
	}
	if len(p.Sequence) == 0 {
		return fmt.Errorf("proteomics: protein %s has empty sequence", p.Accession)
	}
	for i := 0; i < len(p.Sequence); i++ {
		if _, ok := monoisotopicResidue[p.Sequence[i]]; !ok {
			return fmt.Errorf("proteomics: protein %s has unknown residue %q at %d",
				p.Accession, p.Sequence[i], i)
		}
	}
	return nil
}

// SequenceMass computes the monoisotopic mass of a peptide/protein
// sequence (residues + one water).
func SequenceMass(seq string) float64 {
	m := WaterMass
	for i := 0; i < len(seq); i++ {
		m += monoisotopicResidue[seq[i]]
	}
	return m
}

// Peptide is one proteolytic fragment.
type Peptide struct {
	Sequence string
	// Start is the 0-based offset of the peptide in the parent sequence.
	Start int
	// MissedCleavages counts internal K/R sites not cleaved.
	MissedCleavages int
}

// Mass returns the peptide's monoisotopic mass.
func (p Peptide) Mass() float64 { return SequenceMass(p.Sequence) }

// MZ returns the singly-protonated m/z ([M+H]+).
func (p Peptide) MZ() float64 { return p.Mass() + ProtonMass }

// Digest performs an in-silico tryptic digestion: cleavage C-terminal to
// K or R, except when the next residue is P; up to missedCleavages
// missed sites are included (PMF search engines typically allow 0–2).
// Fragments shorter than minLen residues are discarded (they fall below
// the spectrometer's usable range).
func Digest(seq string, missedCleavages, minLen int) []Peptide {
	if minLen < 1 {
		minLen = 1
	}
	// Find cleavage boundaries.
	var cuts []int // index after which we cut
	for i := 0; i < len(seq)-1; i++ {
		if (seq[i] == 'K' || seq[i] == 'R') && seq[i+1] != 'P' {
			cuts = append(cuts, i)
		}
	}
	// Base fragments between consecutive cuts.
	starts := append([]int{0}, nil...)
	for _, c := range cuts {
		starts = append(starts, c+1)
	}
	ends := make([]int, 0, len(starts))
	for _, c := range cuts {
		ends = append(ends, c+1)
	}
	ends = append(ends, len(seq))

	var out []Peptide
	for i := range starts {
		for mc := 0; mc <= missedCleavages && i+mc < len(ends); mc++ {
			frag := seq[starts[i]:ends[i+mc]]
			if len(frag) < minLen {
				continue
			}
			out = append(out, Peptide{Sequence: frag, Start: starts[i], MissedCleavages: mc})
		}
	}
	return out
}

// Peak is one mass-spectrum peak.
type Peak struct {
	// MZ is the mass-to-charge ratio ([M+H]+ for singly-charged ions).
	MZ float64
	// Intensity is the relative ion count (arbitrary units).
	Intensity float64
}

// PeakList is a mass spectrum: the data-intensive representation of a
// protein spot (paper §1.1: "a representation of its protein components
// as a list of individual masses").
type PeakList struct {
	// SpotID identifies the gel spot / sample the spectrum came from.
	SpotID string
	Peaks  []Peak
}

// SortByMZ orders the peaks by ascending m/z.
func (pl *PeakList) SortByMZ() {
	sort.Slice(pl.Peaks, func(i, j int) bool { return pl.Peaks[i].MZ < pl.Peaks[j].MZ })
}

// MZValues returns the peak m/z values in current order.
func (pl *PeakList) MZValues() []float64 {
	out := make([]float64, len(pl.Peaks))
	for i, p := range pl.Peaks {
		out[i] = p.MZ
	}
	return out
}

// SpectrumParams controls synthetic spectrum generation — each knob is
// one of the quality problems §1 names.
type SpectrumParams struct {
	// PeptideDetectionProb is the probability that a true peptide ion is
	// observed at all (technology limitations / incomplete measurement).
	PeptideDetectionProb float64
	// MassErrorPPM is the 1σ measurement error in parts-per-million.
	MassErrorPPM float64
	// NoisePeaks is the number of random noise peaks added
	// (signal-to-noise degradation; Hit Ratio is designed to expose it).
	NoisePeaks int
	// NoiseMZMin/Max bound the noise peak m/z range.
	NoiseMZMin, NoiseMZMax float64
	// MissedCleavages passed to the digestion.
	MissedCleavages int
	// MinPeptideLen passed to the digestion.
	MinPeptideLen int
}

// DefaultSpectrumParams models a reasonably well-run PMF experiment.
func DefaultSpectrumParams() SpectrumParams {
	return SpectrumParams{
		PeptideDetectionProb: 0.75,
		MassErrorPPM:         40,
		NoisePeaks:           12,
		NoiseMZMin:           500,
		NoiseMZMax:           3500,
		MissedCleavages:      1,
		MinPeptideLen:        6,
	}
}

// SynthesizeSpectrum produces a peak list for a sample containing the
// given proteins (true content plus any contaminants the caller mixes
// in), applying detection loss, mass error and noise. The rng makes runs
// reproducible.
func SynthesizeSpectrum(spotID string, sample []Protein, params SpectrumParams, rng *rand.Rand) PeakList {
	pl := PeakList{SpotID: spotID}
	for _, prot := range sample {
		for _, pep := range Digest(prot.Sequence, params.MissedCleavages, params.MinPeptideLen) {
			if rng.Float64() > params.PeptideDetectionProb {
				continue
			}
			mz := pep.MZ()
			if params.MassErrorPPM > 0 {
				mz += mz * params.MassErrorPPM / 1e6 * rng.NormFloat64()
			}
			pl.Peaks = append(pl.Peaks, Peak{MZ: mz, Intensity: 50 + 50*rng.Float64()})
		}
	}
	for i := 0; i < params.NoisePeaks; i++ {
		mz := params.NoiseMZMin + (params.NoiseMZMax-params.NoiseMZMin)*rng.Float64()
		pl.Peaks = append(pl.Peaks, Peak{MZ: mz, Intensity: 5 + 20*rng.Float64()})
	}
	pl.SortByMZ()
	return pl
}

// RandomProtein generates a random protein of the given length with a
// uniform residue distribution — the synthetic reference-database entry.
func RandomProtein(accession string, length int, rng *rand.Rand) Protein {
	var b strings.Builder
	b.Grow(length)
	for i := 0; i < length; i++ {
		b.WriteByte(Residues[rng.Intn(len(Residues))])
	}
	return Protein{
		Accession: accession,
		Name:      "synthetic protein " + accession,
		Sequence:  b.String(),
	}
}

// RandomDatabase generates a reference database of n random proteins with
// lengths uniform in [minLen, maxLen].
func RandomDatabase(n, minLen, maxLen int, rng *rand.Rand) []Protein {
	out := make([]Protein, n)
	for i := range out {
		l := minLen
		if maxLen > minLen {
			l += rng.Intn(maxLen - minLen)
		}
		out[i] = RandomProtein(fmt.Sprintf("SYN%05d", i), l, rng)
	}
	return out
}

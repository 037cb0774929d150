package qa

import (
	"fmt"
	"math"
	"sort"

	"qurator/internal/condition"
	"qurator/internal/evidence"
	"qurator/internal/rdf"
)

// This file implements the paper's stated future work (ii):
// "investigating the use of machine learning techniques to derive
// decision models and quality functions from example data sets".
//
// LearnStumps induces a depth-limited decision tree of single-evidence
// threshold tests (decision stumps split by information gain), emitted as
// a DecisionTree QA, so the learned model plugs into quality views
// exactly like a hand-built one.

// Example is one labelled training instance: a data item (whose evidence
// lives in the training map) with a boolean quality label.
type Example struct {
	Item evidence.Item
	// Good is the ground-truth acceptability label.
	Good bool
}

// TrainingSet pairs an annotation map with labels over its items.
type TrainingSet struct {
	Amap     *evidence.Map
	Examples []Example
	// Features are the evidence types to learn over.
	Features []rdf.Term
}

// Validate checks the training set is learnable.
func (ts *TrainingSet) Validate() error {
	if ts.Amap == nil || len(ts.Examples) == 0 {
		return fmt.Errorf("qa: empty training set")
	}
	if len(ts.Features) == 0 {
		return fmt.Errorf("qa: no features to learn over")
	}
	pos := 0
	for _, ex := range ts.Examples {
		if !ts.Amap.HasItem(ex.Item) {
			return fmt.Errorf("qa: example item %v not in the training map", ex.Item)
		}
		if ex.Good {
			pos++
		}
	}
	if pos == 0 || pos == len(ts.Examples) {
		return fmt.Errorf("qa: training set needs both positive and negative examples (have %d/%d positive)",
			pos, len(ts.Examples))
	}
	return nil
}

// featureMatrix extracts the numeric feature vectors; items missing any
// feature are dropped (with their labels).
func (ts *TrainingSet) featureMatrix() (rows [][]float64, labels []bool) {
	for _, ex := range ts.Examples {
		vec := make([]float64, len(ts.Features))
		ok := true
		for j, f := range ts.Features {
			v, has := ts.Amap.Get(ex.Item, f).AsFloat()
			if !has {
				ok = false
				break
			}
			vec[j] = v
		}
		if ok {
			rows = append(rows, vec)
			labels = append(labels, ex.Good)
		}
	}
	return rows, labels
}

// StumpParams configures tree induction.
type StumpParams struct {
	// MaxDepth bounds the tree (default 3).
	MaxDepth int
	// MinLeaf is the minimum number of examples per leaf (default 2).
	MinLeaf int
}

// LearnStumps induces a decision tree over the training set and returns
// it as a DecisionTree QA assigning goodLabel/badLabel under model.
// Feature variables are resolved through vars, which must bind one
// identifier per feature (the learned conditions reference them by name).
func LearnStumps(ts *TrainingSet, classIRI, model, goodLabel, badLabel rdf.Term,
	vars condition.Bindings, params StumpParams) (*DecisionTree, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if params.MaxDepth <= 0 {
		params.MaxDepth = 3
	}
	if params.MinLeaf <= 0 {
		params.MinLeaf = 2
	}
	// Map each feature to its condition identifier.
	names := make([]string, len(ts.Features))
	for i, f := range ts.Features {
		name := ""
		for ident, key := range vars {
			if key == f {
				name = ident
				break
			}
		}
		if name == "" {
			return nil, fmt.Errorf("qa: no condition identifier bound to feature %v", f)
		}
		names[i] = name
	}
	rows, labels := ts.featureMatrix()
	if len(rows) < 2*params.MinLeaf {
		return nil, fmt.Errorf("qa: too few complete examples (%d)", len(rows))
	}
	root := induce(rows, labels, names, params, 0, goodLabel, badLabel)
	tree := &DecisionTree{
		ClassIRI:        classIRI,
		Model:           model,
		Root:            root,
		Inputs:          ts.Features,
		Vars:            vars,
		ErrorTakesFalse: true,
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	return tree, nil
}

func entropy(pos, n int) float64 {
	if n == 0 || pos == 0 || pos == n {
		return 0
	}
	p := float64(pos) / float64(n)
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

func majority(labels []bool) bool {
	pos := 0
	for _, l := range labels {
		if l {
			pos++
		}
	}
	return pos*2 >= len(labels)
}

// induce recursively builds the tree by best-gain threshold splits.
func induce(rows [][]float64, labels []bool, names []string, params StumpParams,
	depth int, goodLabel, badLabel rdf.Term) *TreeNode {
	leaf := func() *TreeNode {
		if majority(labels) {
			return Leaf(goodLabel)
		}
		return Leaf(badLabel)
	}
	pos := 0
	for _, l := range labels {
		if l {
			pos++
		}
	}
	if depth >= params.MaxDepth || pos == 0 || pos == len(labels) || len(rows) < 2*params.MinLeaf {
		return leaf()
	}

	baseH := entropy(pos, len(labels))
	bestGain, bestFeat, bestThresh := 0.0, -1, 0.0
	for j := range names {
		// Candidate thresholds: midpoints between consecutive distinct
		// sorted values.
		vals := make([]float64, len(rows))
		for i, r := range rows {
			vals[i] = r[j]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for k := 1; k < len(sorted); k++ {
			if sorted[k] == sorted[k-1] {
				continue
			}
			thresh := (sorted[k] + sorted[k-1]) / 2
			hiPos, hiN := 0, 0
			for i, v := range vals {
				if v > thresh {
					hiN++
					if labels[i] {
						hiPos++
					}
				}
			}
			loN := len(vals) - hiN
			loPos := pos - hiPos
			if hiN < params.MinLeaf || loN < params.MinLeaf {
				continue
			}
			gain := baseH -
				(float64(hiN)/float64(len(vals)))*entropy(hiPos, hiN) -
				(float64(loN)/float64(len(vals)))*entropy(loPos, loN)
			if gain > bestGain {
				bestGain, bestFeat, bestThresh = gain, j, thresh
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12 {
		return leaf()
	}

	var hiRows, loRows [][]float64
	var hiLabels, loLabels []bool
	for i, r := range rows {
		if r[bestFeat] > bestThresh {
			hiRows = append(hiRows, r)
			hiLabels = append(hiLabels, labels[i])
		} else {
			loRows = append(loRows, r)
			loLabels = append(loLabels, labels[i])
		}
	}
	cond := condition.MustParse(fmt.Sprintf("%s > %g", names[bestFeat], bestThresh))
	return Branch(cond,
		induce(hiRows, hiLabels, names, params, depth+1, goodLabel, badLabel),
		induce(loRows, loLabels, names, params, depth+1, goodLabel, badLabel))
}

// EvaluateClassifier measures a classifier QA's accuracy over labelled
// items: the fraction whose assigned class equals goodLabel exactly when
// the example is Good. Items without an assignment count as badLabel.
func EvaluateClassifier(tree *DecisionTree, ts *TrainingSet, goodLabel rdf.Term) (float64, error) {
	m := ts.Amap.Clone()
	if err := tree.Assert(m); err != nil {
		return 0, err
	}
	correct := 0
	for _, ex := range ts.Examples {
		predicted := m.Class(ex.Item, tree.Model) == goodLabel
		if predicted == ex.Good {
			correct++
		}
	}
	return float64(correct) / float64(len(ts.Examples)), nil
}

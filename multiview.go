package qurator

import (
	"context"
	"fmt"

	"qurator/internal/compiler"
)

// Multi-view enactment (multi-query optimization): a fleet registering
// thousands of views pays N× for prefixes the views share — the same
// annotators, the same enrichment, the same QA services. MergeViews
// fingerprints the compiled subgraphs and enacts shared prefixes once,
// fanning per-view actions out from the shared consolidation, with
// per-view outputs bit-identical to independent enactment.

type (
	// MultiView is a set of compiled views merged into one enactable plan.
	MultiView = compiler.MultiView
	// ViewResult is one member view's slice of a merged enactment.
	ViewResult = compiler.ViewResult
)

// MergeViews merges compiled views into one plan with shared prefixes
// deduplicated (see compiler.MergeViews for the merge-safety rules).
func MergeViews(views ...*Compiled) (*MultiView, error) {
	return compiler.MergeViews(views...)
}

// CompileViewSet compiles each view XML with the framework's resilience
// and data-plane settings and merges the results into one plan. View
// names must be unique within the set.
func (f *Framework) CompileViewSet(viewXMLs ...[]byte) (*MultiView, error) {
	views := make([]*Compiled, 0, len(viewXMLs))
	for i, xml := range viewXMLs {
		c, err := f.CompileView(xml)
		if err != nil {
			return nil, fmt.Errorf("qurator: view %d of set: %w", i, err)
		}
		views = append(views, c)
	}
	return compiler.MergeViews(views...)
}

// ExecuteViewSet compiles, merges and enacts a view set over a data set
// in one call, clearing per-run caches first. The result is keyed by
// view name, then by output name ("<action>:<port>"), exactly as if each
// view had been executed independently. Any single view's failure fails
// the call; use CompileViewSet + MultiView.Enact to observe per-view
// errors.
func (f *Framework) ExecuteViewSet(ctx context.Context, viewXMLs [][]byte, items []Item) (map[string]map[string]*Map, error) {
	mv, err := f.CompileViewSet(viewXMLs...)
	if err != nil {
		return nil, err
	}
	f.Repositories.ClearCaches()
	res, err := mv.Enact(ctx, items)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]*Map, len(res))
	for name, vr := range res {
		if vr.Err != nil {
			return nil, vr.Err
		}
		out[name] = vr.Outputs
	}
	return out, nil
}

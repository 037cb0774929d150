package provenance_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"qurator"
	"qurator/internal/annotstore"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/mstore"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/provenance"
	"qurator/internal/workflow"
)

// TestStoreFailureReachesCaller closes a durable log's store underneath
// it: Record, a compiled view's Execute and a merged plan's per-view
// result all report mstore.ErrClosed instead of losing the run.
func TestStoreFailureReachesCaller(t *testing.T) {
	f := qurator.New()
	if err := f.DeployStandardLibrary(); err != nil {
		t.Fatal(err)
	}
	noop := ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Fn:       func([]evidence.Item, annotstore.Store) error { return nil },
	}
	if err := f.DeployAnnotator("ImprintOutputAnnotator", noop); err != nil {
		t.Fatal(err)
	}
	c, err := f.CompileView([]byte(qurator.PaperViewXML))
	if err != nil {
		t.Fatal(err)
	}
	l := provenance.NewLog()
	if err := l.Persist(t.TempDir(), mstore.Options{Fsync: mstore.FsyncNever, NoBackground: true}); err != nil {
		t.Fatal(err)
	}
	c.Provenance = l
	if err := provenance.CloseStoreBeneath(l); err != nil {
		t.Fatal(err)
	}

	if _, err := l.Record(provenance.Record{View: "v", Started: time.Now()}); !errors.Is(err, mstore.ErrClosed) {
		t.Errorf("Record error = %v, want mstore.ErrClosed", err)
	}
	if l.Len() != 0 {
		t.Errorf("a failed Record left %d runs", l.Len())
	}

	// An empty data set: the run still ends in a provenance record.
	var items []evidence.Item
	in := workflow.Ports{compiler.PortDataSet: evidence.NewMap(items...)}
	if _, err := c.Execute(context.Background(), in); !errors.Is(err, mstore.ErrClosed) {
		t.Errorf("Execute error = %v, want mstore.ErrClosed", err)
	}

	mv, err := compiler.MergeViews(c)
	if err != nil {
		t.Fatal(err)
	}
	results, err := mv.Enact(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if vr := results[c.Name()]; !errors.Is(vr.Err, mstore.ErrClosed) {
		t.Errorf("merged view result error = %v, want mstore.ErrClosed", vr.Err)
	}
}

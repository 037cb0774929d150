package qurator

import (
	"context"
	"errors"
	"strings"
	"testing"

	"qurator/internal/annotstore"
	"qurator/internal/compiler"
)

// failingClear is a cache repository whose clear fails, as a durable
// cache on a failed disk, or a remote one during an outage, would.
type failingClear struct{ *annotstore.Repository }

func (failingClear) Clear() error { return errors.New("disk full") }

// TestExecuteViewUnclearedCache: a per-run cache that cannot be cleared
// stops a run that has no degraded mode. With one, the run goes on and
// every item's evidence carries the degraded marker.
func TestExecuteViewUnclearedCache(t *testing.T) {
	f, items := deployTestWorld(t)
	f.Repositories.Add(failingClear{annotstore.New("cache", false)})
	if _, err := f.ExecuteView(context.Background(), []byte(PaperViewXML), items); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("ExecuteView error = %v, want the clear failure", err)
	}

	f.SetResilience(Resilience{Degraded: DegradeQuarantine})
	out, err := f.ExecuteView(context.Background(), []byte(PaperViewXML), items)
	if err != nil {
		t.Fatalf("degraded ExecuteView: %v", err)
	}
	ann := out[compiler.OutputAnnotations]
	if ann == nil {
		t.Fatalf("outputs = %v", keysOf(out))
	}
	for _, it := range items {
		if !ann.Has(it, DegradedEvidence) {
			t.Errorf("%v lacks the degraded-evidence marker", it)
		}
	}
}

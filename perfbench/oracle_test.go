package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qurator/internal/ontology"
	"qurator/internal/stream"
)

// enactInProcess runs a schedule's first n operations through the real
// stream enactor, without HTTP, and returns its window results.
func enactInProcess(t *testing.T, w *workload, s *schedule, n int) []stream.WindowResult {
	t.Helper()
	bo, err := newBatchOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Window: w.count, Parallelism: 1}
	if e := w.event; e != nil {
		cfg = stream.Config{
			EventTimeKey:    ontology.ObservedAt,
			WindowDuration:  time.Duration(e.windowMs) * time.Millisecond,
			SlideDuration:   time.Duration(e.slideMs) * time.Millisecond,
			MaxOutOfOrder:   time.Duration(e.oooMs) * time.Millisecond,
			AllowedLateness: time.Duration(e.latenessMs) * time.Millisecond,
			Parallelism:     1,
		}
	}
	en, err := stream.New(bo.views[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- en.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			it, err := stream.DecodeItem(s.items[s.ops[i].item].line)
			if err != nil {
				t.Error(err)
				return
			}
			in <- it
		}
	}()
	var res []stream.WindowResult
	for r := range out {
		res = append(res, r)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return res
}

// observed renders window results the way the client reads them.
func observed(rs []stream.WindowResult) []obsWindow {
	out := make([]obsWindow, len(rs))
	for i, r := range rs {
		out[i] = obsWindow{decisions: r.Decisions, sum: wireSummary{
			Window: r.Seq, View: r.View, Size: r.Size, Decided: len(r.Decisions), Partial: r.Partial,
			Start: r.Start, End: r.End, Late: r.Late, Supersedes: r.Supersedes}}
	}
	return out
}

// TestModelMatchesEnactor holds the oracle's window models to the real
// enactor: schedules of every single-node workload, enacted in process,
// pass the oracle with no failed operation — the windows, their decide
// sets and the late re-emissions are exactly the modelled ones.
func TestModelMatchesEnactor(t *testing.T) {
	for _, name := range []string{"inline-count", "eventtime-query"} {
		w, _ := workloadByName(name)
		for seed := int64(1); seed <= 4; seed++ {
			for _, tag := range []string{"warm0", "open0", "sat0"} {
				t.Run(fmt.Sprintf("%s/%d/%s", name, seed, tag), func(t *testing.T) {
					s := newSchedule(w, seed, fmt.Sprintf("%s-s%d", tag, seed))
					n := 700
					s.extend(n)
					c := checkStream(w, s, n, 200, observed(enactInProcess(t, w, s, n)), "")
					if c.failed != 0 {
						t.Fatalf("%d of %d operations failed: %v", c.failed, c.attempted, c.problems)
					}
					if w.event != nil {
						late := 0
						for _, ew := range expected(w, s, n) {
							if ew.late {
								late++
							}
						}
						if late == 0 {
							t.Errorf("no superseding re-emission in %d operations", n)
						}
					}
				})
			}
		}
	}
}

// TestOracleCatchesFlippedDecision: the batch re-decision of a window
// agrees with the stream's decisions, and flipping one decision is
// caught as exactly one failed item.
func TestOracleCatchesFlippedDecision(t *testing.T) {
	w, _ := workloadByName("inline-count")
	s := newSchedule(w, 5, "flip")
	n := 2 * w.count
	s.extend(n)
	got := enactInProcess(t, w, s, n)
	bo, err := newBatchOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	exp := expected(w, s, n)
	want, err := bo.decide(s, &exp[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad := compareDecisions(got[1].Decisions, want); len(bad) != 0 {
		t.Fatalf("batch enactment disagrees with the stream on %d items", len(bad))
	}
	accepted := 0
	for _, d := range want {
		if len(d.Outputs) > 0 {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(want) {
		t.Fatalf("degenerate window: %d of %d accepted", accepted, len(want))
	}
	flipped := append([]stream.Decision(nil), got[1].Decisions...)
	if len(flipped[3].Outputs) > 0 {
		flipped[3].Outputs = []string{}
	} else {
		flipped[3].Outputs = []string{"filter top k score:accepted"}
	}
	bad := compareDecisions(flipped, want)
	if len(bad) != 1 || bad[0] != flipped[3].Item {
		t.Fatalf("flipped decision of %s: oracle reported %v", flipped[3].Item, bad)
	}
}

// TestOracleCatchesDuplicateAndLoss: an item decided twice, or not at
// all, fails.
func TestOracleCatchesDuplicateAndLoss(t *testing.T) {
	w, _ := workloadByName("inline-count")
	s := newSchedule(w, 6, "dup")
	n := 2 * w.count
	s.extend(n)
	obs := observed(enactInProcess(t, w, s, n))
	if c := checkStream(w, s, n, 200, obs, ""); c.failed != 0 {
		t.Fatalf("clean stream: %d failed: %v", c.failed, c.problems)
	}
	dup := observed(enactInProcess(t, w, s, n))
	dup[1].decisions[0] = dup[0].decisions[0]
	if c := checkStream(w, s, n, 200, dup, ""); c.failed == 0 {
		t.Error("a decision moved into another window was not caught")
	}
	if c := checkStream(w, s, n, 200, obs[:1], ""); c.failed != w.count {
		t.Errorf("a lost window failed %d items, want %d", c.failed, w.count)
	}
	if c := checkStream(w, s, n, 429, nil, ""); c.failed != n {
		t.Errorf("a 429 failed %d operations, want %d", c.failed, n)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"qurator"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/stream"
	"qurator/internal/workflow"
)

// expWindow is one window the stream must emit (once per view): its
// sequence number and shape, its content and decide set as indices into
// the schedule's items, and the operation whose arrival fired it.
type expWindow struct {
	seq           int
	late, partial bool
	start, end    int64 // event-time bounds in unix ms; 0 for count windows
	items         []int
	decide        []int
	fireOp        int // -1: fired by the end of the input
}

// expectCount models tumbling count windows over the first nOps
// operations: every size items fire a window, the remainder is a partial
// window at the end of the input.
func expectCount(s *schedule, nOps, size int) []expWindow {
	var out []expWindow
	var cur []int
	for i := 0; i < nOps; i++ {
		cur = append(cur, s.ops[i].item)
		if len(cur) == size {
			out = append(out, expWindow{seq: len(out), items: cur, decide: cur, fireOp: i})
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, expWindow{seq: len(out), items: cur, decide: cur, partial: true, fireOp: -1})
	}
	return out
}

// ewin is one modelled event-time window.
type ewin struct {
	start, end int64
	items      []int
	in         map[int]bool
	decided    []int
}

// expectEvent models aligned sliding event-time windows with a low
// watermark (max event time minus the out-of-order bound), decide-once
// semantics, retention of fired windows for the allowed lateness, and
// superseding re-fires when an item arrives for a retained window — the
// semantics internal/stream documents for its event-time windower.
func expectEvent(s *schedule, nOps int, e *eventTime) []expWindow {
	var (
		out      []expWindow
		open     = map[int64]*ewin{}
		fired    []*ewin
		refs     = map[int]int{}
		decided  = map[int]bool{}
		maxEv    int64
		saw      bool
		emit     = func(w expWindow) { w.seq = len(out); out = append(out, w) }
		snapshot = func(x []int) []int { return append([]int(nil), x...) }
	)
	add := func(w *ewin, item int) bool {
		if w.in[item] {
			return false
		}
		w.in[item] = true
		w.items = append(w.items, item)
		refs[item]++
		return true
	}
	release := func(w *ewin) {
		for _, it := range w.items {
			if refs[it]--; refs[it] <= 0 {
				delete(refs, it)
				delete(decided, it)
			}
		}
	}
	fire := func(w *ewin, partial bool, at int) {
		var dec []int
		for _, it := range w.items {
			if !decided[it] {
				decided[it] = true
				dec = append(dec, it)
			}
		}
		w.decided = dec
		emit(expWindow{start: w.start, end: w.end, partial: partial, items: snapshot(w.items), decide: snapshot(dec), fireOp: at})
		if !partial && e.latenessMs > 0 {
			fired = append(fired, w)
		} else {
			release(w)
		}
	}
	byEnd := func(ws []*ewin) {
		sort.Slice(ws, func(a, b int) bool {
			if ws[a].end != ws[b].end {
				return ws[a].end < ws[b].end
			}
			return ws[a].start < ws[b].start
		})
	}
	for i := 0; i < nOps; i++ {
		item := s.ops[i].item
		t := s.items[item].eventMs
		if !saw || t > maxEv {
			maxEv, saw = t, true
		}
		wm := maxEv - e.oooMs
		last := floorDiv(t, e.slideMs) * e.slideMs
		var starts []int64
		for st := last; st > t-e.windowMs; st -= e.slideMs {
			starts = append(starts, st)
		}
		for k := len(starts) - 1; k >= 0; k-- {
			st := starts[k]
			if w := open[st]; w != nil {
				add(w, item)
				continue
			}
			if st+e.windowMs > wm {
				w := &ewin{start: st, end: st + e.windowMs, in: map[int]bool{}}
				open[st] = w
				add(w, item)
				continue
			}
			for _, fw := range fired {
				if fw.start != st {
					continue
				}
				if add(fw, item) && !decided[item] {
					decided[item] = true
					fw.decided = append(fw.decided, item)
				}
				emit(expWindow{start: fw.start, end: fw.end, late: true,
					items: snapshot(fw.items), decide: snapshot(fw.decided), fireOp: i})
				break
			}
		}
		var due []*ewin
		for st, w := range open {
			if w.end <= wm {
				due = append(due, w)
				delete(open, st)
			}
		}
		byEnd(due)
		for _, w := range due {
			fire(w, false, i)
		}
		keep := fired[:0]
		for _, fw := range fired {
			if wm < fw.end+e.latenessMs {
				keep = append(keep, fw)
			} else {
				release(fw)
			}
		}
		fired = keep
	}
	var rest []*ewin
	for _, w := range open {
		rest = append(rest, w)
	}
	byEnd(rest)
	for _, w := range rest {
		fire(w, true, -1)
	}
	return out
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// expected models a stream's emissions over its first nOps operations.
func expected(w *workload, s *schedule, nOps int) []expWindow {
	if w.event != nil {
		return expectEvent(s, nOps, w.event)
	}
	return expectCount(s, nOps, w.count)
}

// wireSummary is a window summary line of the /stream/enact response.
type wireSummary struct {
	Window     int    `json:"window"`
	View       string `json:"view"`
	Size       int    `json:"size"`
	Decided    int    `json:"decided"`
	Partial    bool   `json:"partial"`
	Failed     bool   `json:"failed"`
	Replayed   bool   `json:"replayed"`
	Start      int64  `json:"start"`
	End        int64  `json:"end"`
	Late       bool   `json:"late"`
	Supersedes string `json:"supersedes"`
	Error      string `json:"error"`
}

// obsWindow is one emitted window as the client read it: its summary,
// the decision lines that preceded it, and when the summary was read.
type obsWindow struct {
	sum       wireSummary
	decisions []stream.Decision
	at        int64
}

// parseResponse splits a response into windows. A trailing {"error":..}
// record is returned separately.
func parseResponse(lines [][]byte, at []int64) (wins []obsWindow, errRecord string, err error) {
	var pending []stream.Decision
	for i, l := range lines {
		switch {
		case bytes.HasPrefix(l, []byte(`{"item":`)):
			var d stream.Decision
			if err := json.Unmarshal(l, &d); err != nil {
				return nil, "", fmt.Errorf("decision line %d: %w", i, err)
			}
			pending = append(pending, d)
		case bytes.HasPrefix(l, []byte(`{"error":`)):
			var e struct{ Error string }
			_ = json.Unmarshal(l, &e)
			errRecord = e.Error
		default:
			var s wireSummary
			if err := json.Unmarshal(l, &s); err != nil {
				return nil, "", fmt.Errorf("summary line %d: %w", i, err)
			}
			wins = append(wins, obsWindow{sum: s, decisions: pending, at: at[i]})
			pending = nil
		}
	}
	if len(pending) > 0 {
		return wins, errRecord, fmt.Errorf("%d decisions after the last window summary", len(pending))
	}
	return wins, errRecord, nil
}

// streamCheck is the oracle's verdict on one stream.
type streamCheck struct {
	attempted, failed int
	// matched[j] is the expected window observed window j answered, or
	// nil when the two differ.
	matched  []*expWindow
	problems []string
}

// checkStream compares a stream's observed windows with the model:
// structure, decide sets and exactly-once decision of every item per
// view. An item that is not decided exactly once, a window that differs
// from the model, a non-2xx or 429 status and a trailing error record
// all fail operations.
func checkStream(w *workload, s *schedule, nOps int, status int, obs []obsWindow, errRecord string) *streamCheck {
	c := &streamCheck{attempted: nOps, matched: make([]*expWindow, len(obs))}
	if status < 200 || status > 299 || errRecord != "" {
		c.failed = nOps
		c.problems = append(c.problems, fmt.Sprintf("status %d, error record %q", status, errRecord))
		return c
	}
	exp := expected(w, s, nOps)
	views := viewLabels(w)
	badItem := map[int]bool{}
	badWin := map[int]bool{} // expected window index
	extra := 0               // decisions in windows the model does not have
	for k := 0; k < len(exp)*len(views) || k < len(obs); k++ {
		if k >= len(exp)*len(views) {
			extra += len(obs[k].decisions)
			c.problems = append(c.problems, fmt.Sprintf("unexpected window %d", obs[k].sum.Window))
			continue
		}
		ew := &exp[k/len(views)]
		if k >= len(obs) {
			badWin[k/len(views)] = true
			continue
		}
		if why := windowDiff(s, ew, views[k%len(views)], obs[k]); why != "" {
			badWin[k/len(views)] = true
			if len(c.problems) < 5 {
				c.problems = append(c.problems, why)
			}
			continue
		}
		c.matched[k] = ew
	}
	for wi := range badWin {
		for _, it := range exp[wi].decide {
			badItem[it] = true
		}
	}
	// Exactly once per view in the original (non-late) emissions.
	seen := make([]map[string]int, len(views))
	for k := range seen {
		seen[k] = map[string]int{}
	}
	for k, o := range obs {
		if o.sum.Late || k >= len(exp)*len(views) {
			continue
		}
		for _, d := range o.decisions {
			seen[k%len(views)][d.Item]++
		}
	}
	fresh := 0
	for i := 0; i < nOps; i++ {
		if s.ops[i].late {
			continue
		}
		fresh++
		it := s.ops[i].item
		for k := range views {
			if seen[k][s.items[it].id] != 1 {
				badItem[it] = true
			}
		}
	}
	c.failed = min(len(badItem)+extra, nOps)
	// A late re-send succeeds when every superseding window it fired was
	// emitted as modelled; one that fires none has been dropped.
	fires := map[int][]int{}
	for wi, ew := range exp {
		if ew.late {
			fires[ew.fireOp] = append(fires[ew.fireOp], wi)
		}
	}
	for i := 0; i < nOps; i++ {
		if !s.ops[i].late {
			continue
		}
		ok := len(fires[i]) > 0
		for _, wi := range fires[i] {
			ok = ok && !badWin[wi]
		}
		if !ok {
			c.failed++
		}
	}
	if c.failed > 0 && len(c.problems) == 0 {
		c.problems = append(c.problems, fmt.Sprintf("%d of %d items not decided exactly once", c.failed, fresh))
	}
	return c
}

// viewLabels are the "view" fields a stream's windows carry, in emission
// order: empty for a single-view stream, the member names for a merged
// one.
func viewLabels(w *workload) []string {
	if len(w.views) == 1 {
		return []string{""}
	}
	return w.views
}

// windowDiff explains how an observed window differs from the model, or
// returns "".
func windowDiff(s *schedule, ew *expWindow, view string, o obsWindow) string {
	sum := o.sum
	want := wireSummary{Window: ew.seq, View: view, Size: len(ew.items), Decided: len(ew.decide),
		Partial: ew.partial, Start: ew.start, End: ew.end, Late: ew.late}
	got := sum
	got.Supersedes, got.Error = "", ""
	if got != want {
		return fmt.Sprintf("window %d: got %+v, want %+v", ew.seq, got, want)
	}
	if ew.late != (sum.Supersedes != "") {
		return fmt.Sprintf("window %d: late=%v but supersedes=%q", ew.seq, ew.late, sum.Supersedes)
	}
	for i, d := range o.decisions {
		if d.Item != s.items[ew.decide[i]].id || d.Window != ew.seq {
			return fmt.Sprintf("window %d: decision %d is %s in window %d, want %s",
				ew.seq, i, d.Item, d.Window, s.items[ew.decide[i]].id)
		}
	}
	return ""
}

// batchOracle re-decides windows by batch enactment of the same window
// content: the compiled view's Execute over the window's annotation map
// (the path Compiled.Run takes, with the inline evidence rows kept) and
// stream.Decide — the batch side of the batch≡stream law. It compiles
// every member view on its own, so merged streams are also checked
// against independent enactment.
type batchOracle struct {
	views    []*compiler.Compiled
	rowCache map[string]stream.Item
}

func newBatchOracle(w *workload) (*batchOracle, error) {
	f := qurator.New()
	if err := f.DeployStandardLibrary(); err != nil {
		return nil, err
	}
	if err := publishBenchViews(f); err != nil {
		return nil, err
	}
	if w.demoAnnotator {
		if err := f.DeployAnnotator("ImprintOutputAnnotator", demoAnnotator{}); err != nil {
			return nil, err
		}
	}
	o := &batchOracle{rowCache: map[string]stream.Item{}}
	for _, v := range w.views {
		c, err := streamCompiler(f)(v)
		if err != nil {
			return nil, err
		}
		o.views = append(o.views, c)
	}
	return o, nil
}

// decide re-decides one modelled window for view index v.
func (o *batchOracle) decide(s *schedule, ew *expWindow, v int) ([]stream.Decision, error) {
	m := evidence.NewMap()
	for _, idx := range ew.items {
		it, err := stream.DecodeItem(s.items[idx].line)
		if err != nil {
			return nil, err
		}
		m.SetRow(it.ID, it.Evidence)
	}
	c := o.views[v]
	ports, err := c.Execute(context.Background(), workflow.Ports{compiler.PortDataSet: m})
	if err != nil {
		return nil, err
	}
	outputs := make(map[string]*evidence.Map, len(ports))
	for name, p := range ports {
		if pm, ok := p.(*evidence.Map); ok {
			outputs[name] = pm
		}
	}
	decide := make([]evidence.Item, len(ew.decide))
	for i, idx := range ew.decide {
		decide[i] = evidence.Item(qurator.NewItem(s.items[idx].id))
	}
	return stream.Decide(decide, outputs, outputs[compiler.OutputAnnotations], c.Plan().Outputs, ew.seq), nil
}

// compareDecisions counts the decisions that differ between an emitted
// window and its batch re-decision, and returns the differing items.
func compareDecisions(got, want []stream.Decision) []string {
	var bad []string
	for i := range want {
		if i >= len(got) {
			bad = append(bad, want[i].Item)
			continue
		}
		g, _ := json.Marshal(got[i])
		x, _ := json.Marshal(want[i])
		if !bytes.Equal(g, x) {
			bad = append(bad, want[i].Item)
		}
	}
	return bad
}

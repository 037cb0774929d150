package workflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// adder returns a processor with inputs a, b and output sum.
func adder(name string) *Func {
	return &Func{
		PName:   name,
		Inputs:  []string{"a", "b"},
		Outputs: []string{"sum"},
		Fn: func(_ context.Context, in Ports) (Ports, error) {
			return Ports{"sum": in["a"].(int) + in["b"].(int)}, nil
		},
	}
}

// constant returns a source processor emitting v on port out.
func constant(name string, v int) *Func {
	return &Func{
		PName:   name,
		Outputs: []string{"out"},
		Fn: func(context.Context, Ports) (Ports, error) {
			return Ports{"out": v}, nil
		},
	}
}

func TestLinearPipeline(t *testing.T) {
	w := New("pipeline")
	w.MustAddProcessor(constant("one", 1))
	w.MustAddProcessor(constant("two", 2))
	w.MustAddProcessor(adder("add"))
	w.MustAddLink(Link{"one", "out", "add", "a"})
	w.MustAddLink(Link{"two", "out", "add", "b"})
	if err := w.BindOutput("result", "add", "sum"); err != nil {
		t.Fatal(err)
	}
	out, err := w.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out["result"] != 3 {
		t.Errorf("result = %v, want 3", out["result"])
	}
}

func TestWorkflowInputsFanOut(t *testing.T) {
	w := New("fan")
	w.MustAddProcessor(adder("add"))
	double := &Func{
		PName: "double", Inputs: []string{"x"}, Outputs: []string{"y"},
		Fn: func(_ context.Context, in Ports) (Ports, error) {
			return Ports{"y": in["x"].(int) * 2}, nil
		},
	}
	w.MustAddProcessor(double)
	if err := w.BindInput("n", "add", "a"); err != nil {
		t.Fatal(err)
	}
	if err := w.BindInput("n", "double", "x"); err != nil {
		t.Fatal(err)
	}
	if err := w.BindInput("m", "add", "b"); err != nil {
		t.Fatal(err)
	}
	w.BindOutput("sum", "add", "sum")
	w.BindOutput("twice", "double", "y")

	out, err := w.Run(context.Background(), Ports{"n": 5, "m": 7})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out["sum"] != 12 || out["twice"] != 10 {
		t.Errorf("out = %v", out)
	}
}

func TestMissingWorkflowInput(t *testing.T) {
	w := New("w")
	w.MustAddProcessor(adder("add"))
	w.BindInput("n", "add", "a")
	w.BindInput("m", "add", "b")
	if _, err := w.Run(context.Background(), Ports{"n": 1}); err == nil {
		t.Error("missing workflow input should fail")
	}
}

func TestControlLinkOrdering(t *testing.T) {
	var order []string
	var mu sync.Mutex
	mk := func(name string, delay time.Duration) *Func {
		return &Func{
			PName: name,
			Fn: func(context.Context, Ports) (Ports, error) {
				time.Sleep(delay)
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return Ports{}, nil
			},
		}
	}
	w := New("ctrl")
	// slow would finish after fast without the control link.
	w.MustAddProcessor(mk("slow", 30*time.Millisecond))
	w.MustAddProcessor(mk("fast", 0))
	if err := w.AddControlLink(ControlLink{From: "slow", To: "fast"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "slow" || order[1] != "fast" {
		t.Errorf("order = %v, want [slow fast]", order)
	}
}

func TestConcurrentIndependentProcessors(t *testing.T) {
	var running, peak int32
	mk := func(name string) *Func {
		return &Func{
			PName: name,
			Fn: func(context.Context, Ports) (Ports, error) {
				n := atomic.AddInt32(&running, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				atomic.AddInt32(&running, -1)
				return Ports{}, nil
			},
		}
	}
	w := New("par")
	for i := 0; i < 4; i++ {
		w.MustAddProcessor(mk(fmt.Sprintf("p%d", i)))
	}
	if _, err := w.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Errorf("independent processors did not overlap (peak=%d)", peak)
	}
}

func TestValidateUnfedPort(t *testing.T) {
	w := New("w")
	w.MustAddProcessor(adder("add"))
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "not fed") {
		t.Errorf("Validate should report unfed port, got %v", err)
	}
}

func TestValidateCycle(t *testing.T) {
	relay := func(name string) *Func {
		return &Func{
			PName: name, Inputs: []string{"in"}, Outputs: []string{"out"},
			Fn: func(_ context.Context, in Ports) (Ports, error) {
				return Ports{"out": in["in"]}, nil
			},
		}
	}
	w := New("cyclic")
	w.MustAddProcessor(relay("a"))
	w.MustAddProcessor(relay("b"))
	w.MustAddLink(Link{"a", "out", "b", "in"})
	w.MustAddLink(Link{"b", "out", "a", "in"})
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Validate should report cycle, got %v", err)
	}
	// Control-link cycles are also rejected.
	w2 := New("cyclic2")
	w2.MustAddProcessor(constant("a", 1))
	w2.MustAddProcessor(constant("b", 2))
	if err := w2.AddControlLink(ControlLink{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := w2.AddControlLink(ControlLink{"b", "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("control cycle not detected: %v", err)
	}
}

func TestLinkValidation(t *testing.T) {
	w := New("w")
	w.MustAddProcessor(constant("src", 1))
	w.MustAddProcessor(adder("add"))
	cases := []Link{
		{"nope", "out", "add", "a"},   // unknown source
		{"src", "nope", "add", "a"},   // unknown source port
		{"src", "out", "nope", "a"},   // unknown target
		{"src", "out", "add", "nope"}, // unknown target port
	}
	for _, l := range cases {
		if err := w.AddLink(l); err == nil {
			t.Errorf("AddLink(%v) should fail", l)
		}
	}
	// Double-feeding a port is rejected.
	w.MustAddLink(Link{"src", "out", "add", "a"})
	if err := w.AddLink(Link{"src", "out", "add", "a"}); err == nil {
		t.Error("double-fed port should be rejected")
	}
	if err := w.BindInput("x", "add", "a"); err == nil {
		t.Error("binding input over a fed port should be rejected")
	}
	// Duplicate processors and outputs.
	if err := w.AddProcessor(constant("src", 9)); err == nil {
		t.Error("duplicate processor should be rejected")
	}
	w.BindOutput("o", "src", "out")
	if err := w.BindOutput("o", "src", "out"); err == nil {
		t.Error("duplicate output should be rejected")
	}
	if err := w.AddControlLink(ControlLink{"src", "ghost"}); err == nil {
		t.Error("control link to unknown processor should be rejected")
	}
}

func TestProcessorErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	w := New("w")
	w.MustAddProcessor(&Func{
		PName: "bad",
		Fn:    func(context.Context, Ports) (Ports, error) { return nil, boom },
	})
	w.MustAddProcessor(adder("add"))
	w.BindInput("n", "add", "a")
	w.BindInput("m", "add", "b")
	_, err := w.Run(context.Background(), Ports{"n": 1, "m": 2})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestErrorCancelsDownstream(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	w := New("w")
	w.MustAddProcessor(&Func{
		PName: "bad", Outputs: []string{"out"},
		Fn: func(context.Context, Ports) (Ports, error) { return nil, boom },
	})
	w.MustAddProcessor(&Func{
		PName: "after", Inputs: []string{"in"},
		Fn: func(context.Context, Ports) (Ports, error) {
			atomic.AddInt32(&ran, 1)
			return Ports{}, nil
		},
	})
	w.MustAddLink(Link{"bad", "out", "after", "in"})
	if _, err := w.Run(context.Background(), nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Error("downstream processor should not run after failure")
	}
}

func TestPanickingProcessorBecomesError(t *testing.T) {
	w := New("w")
	w.MustAddProcessor(&Func{
		PName: "bomb",
		Fn: func(context.Context, Ports) (Ports, error) {
			panic("kaboom")
		},
	})
	_, err := w.Run(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic should surface as error, got %v", err)
	}
}

func TestMissingOutputPortIsError(t *testing.T) {
	w := New("w")
	w.MustAddProcessor(&Func{
		PName: "src", Outputs: []string{"out"},
		Fn: func(context.Context, Ports) (Ports, error) { return Ports{}, nil }, // no "out"!
	})
	w.MustAddProcessor(&Func{
		PName: "sink", Inputs: []string{"in"},
		Fn: func(context.Context, Ports) (Ports, error) { return Ports{}, nil },
	})
	w.MustAddLink(Link{"src", "out", "sink", "in"})
	if _, err := w.Run(context.Background(), nil); err == nil {
		t.Error("missing output value should be an error")
	}
}

func TestWorkflowEmbedding(t *testing.T) {
	// Build an inner workflow computing (a+b), then embed it in an outer
	// workflow that doubles the result — the §6.2 embedding operation.
	inner := New("inner")
	inner.MustAddProcessor(adder("add"))
	inner.BindInput("x", "add", "a")
	inner.BindInput("y", "add", "b")
	inner.BindOutput("sum", "add", "sum")

	outer := New("outer")
	outer.MustAddProcessor(inner) // workflow as processor
	outer.MustAddProcessor(&Func{
		PName: "double", Inputs: []string{"v"}, Outputs: []string{"r"},
		Fn: func(_ context.Context, in Ports) (Ports, error) {
			return Ports{"r": in["v"].(int) * 2}, nil
		},
	})
	outer.MustAddLink(Link{"inner", "sum", "double", "v"})
	outer.BindInput("x", "inner", "x")
	outer.BindInput("y", "inner", "y")
	outer.BindOutput("result", "double", "r")

	out, err := outer.Run(context.Background(), Ports{"x": 3, "y": 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out["result"] != 14 {
		t.Errorf("result = %v, want 14", out["result"])
	}
	// The embedded workflow exposes its interface as ports.
	if got := inner.InputPorts(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("inner InputPorts = %v", got)
	}
	if got := inner.OutputPorts(); len(got) != 1 || got[0] != "sum" {
		t.Errorf("inner OutputPorts = %v", got)
	}
}

func TestRunTraceRecordsEvents(t *testing.T) {
	w := New("traced")
	w.MustAddProcessor(constant("one", 1))
	w.MustAddProcessor(constant("two", 2))
	w.MustAddProcessor(adder("add"))
	w.MustAddLink(Link{"one", "out", "add", "a"})
	w.MustAddLink(Link{"two", "out", "add", "b"})
	_, trace, err := w.RunTrace(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Events) != 3 {
		t.Fatalf("events = %v", trace.Events)
	}
	// add must complete after its producers.
	idx := map[string]int{}
	for i, e := range trace.Events {
		idx[e.Processor] = i
	}
	if idx["add"] < idx["one"] || idx["add"] < idx["two"] {
		t.Errorf("trace order wrong: %v", trace.Events)
	}
	for _, e := range trace.Events {
		if e.Err != nil {
			t.Errorf("%s failed: %v", e.Processor, e.Err)
		}
		if e.End.Before(e.Start) {
			t.Error("event end before start")
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w := New("w")
	started := make(chan struct{})
	w.MustAddProcessor(&Func{
		PName: "slow", Outputs: []string{"out"},
		Fn: func(ctx context.Context, _ Ports) (Ports, error) {
			close(started)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return Ports{"out": 1}, nil
			}
		},
	})
	go func() {
		<-started
		cancel()
	}()
	if _, err := w.Run(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestDiamondDAG(t *testing.T) {
	// src -> (left, right) -> join
	w := New("diamond")
	w.MustAddProcessor(constant("src", 10))
	mk := func(name string, f func(int) int) *Func {
		return &Func{
			PName: name, Inputs: []string{"in"}, Outputs: []string{"out"},
			Fn: func(_ context.Context, in Ports) (Ports, error) {
				return Ports{"out": f(in["in"].(int))}, nil
			},
		}
	}
	w.MustAddProcessor(mk("left", func(x int) int { return x + 1 }))
	w.MustAddProcessor(mk("right", func(x int) int { return x * 2 }))
	w.MustAddProcessor(adder("join"))
	w.MustAddLink(Link{"src", "out", "left", "in"})
	w.MustAddLink(Link{"src", "out", "right", "in"})
	w.MustAddLink(Link{"left", "out", "join", "a"})
	w.MustAddLink(Link{"right", "out", "join", "b"})
	w.BindOutput("v", "join", "sum")
	out, err := w.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["v"] != 31 {
		t.Errorf("v = %v, want 31", out["v"])
	}
}

func BenchmarkEnactDiamond(b *testing.B) {
	w := New("diamond")
	w.MustAddProcessor(constant("src", 10))
	relay := func(name string) *Func {
		return &Func{
			PName: name, Inputs: []string{"in"}, Outputs: []string{"out"},
			Fn: func(_ context.Context, in Ports) (Ports, error) {
				return Ports{"out": in["in"]}, nil
			},
		}
	}
	w.MustAddProcessor(relay("left"))
	w.MustAddProcessor(relay("right"))
	w.MustAddProcessor(adder("join"))
	w.MustAddLink(Link{"src", "out", "left", "in"})
	w.MustAddLink(Link{"src", "out", "right", "in"})
	w.MustAddLink(Link{"left", "out", "join", "a"})
	w.MustAddLink(Link{"right", "out", "join", "b"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

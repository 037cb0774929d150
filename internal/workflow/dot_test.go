package workflow

import (
	"context"
	"strings"
	"testing"
)

func TestToDOT(t *testing.T) {
	w := New("demo")
	w.MustAddProcessor(constant("src", 1))
	w.MustAddProcessor(&Func{
		PName: "sink", Inputs: []string{"in"}, Outputs: []string{"done"},
		Fn: func(_ context.Context, in Ports) (Ports, error) {
			return Ports{"done": in["in"]}, nil
		},
	})
	w.MustAddProcessor(constant("side", 2))
	w.MustAddLink(Link{"src", "out", "sink", "in"})
	if err := w.AddControlLink(ControlLink{"side", "sink"}); err != nil {
		t.Fatal(err)
	}
	w.BindOutput("result", "sink", "done")

	dot := w.ToDOT()
	for _, want := range []string{
		`digraph "demo"`,
		`"src" -> "sink"`,
		`style=dashed, label="ctrl"`,
		`"out:result"`,
		`rankdir=LR`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Balanced braces, vaguely well-formed.
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Error("unbalanced braces")
	}
}

func TestToDOTWithWorkflowInputs(t *testing.T) {
	w := New("io")
	w.MustAddProcessor(adder("add"))
	w.BindInput("x", "add", "a")
	w.BindInput("y", "add", "b")
	dot := w.ToDOT()
	if !strings.Contains(dot, `"in:x" -> "add"`) || !strings.Contains(dot, `"in:y" -> "add"`) {
		t.Errorf("inputs not rendered:\n%s", dot)
	}
}

// Command perfbench is the repository's end-to-end benchmark of
// quratord's stream path: NDJSON in → admission → forwarding → windowing
// → annotate/QA/action → journal commit → NDJSON out, over loopback
// HTTP, with the system under test in its own process.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench sut -workload NAME [-data DIR] [-trace]
//
// The first form is the generator: it starts the SUT (the second form,
// the same binary), sends a seeded open-loop schedule and then saturates
// it, checks every decision, and prints the end-to-end metrics (trace 0)
// or the per-layer metrics of a traced run (trace 1). The last line of
// its output is the JSON result. See README.md.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		if err := runSUT(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sut:", err)
			os.Exit(1)
		}
		return
	}
	if err := runBench(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

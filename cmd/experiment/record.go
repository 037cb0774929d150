package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"qurator/internal/telemetry"
)

// record is the experiment/v1 schema every experiment writes to
// BENCH_<experiment>.json. Per-row results are metrics named
// "<row>/<field>"; every tripwire is a named check.
type record struct {
	Schema     string                     `json:"schema"`
	Experiment string                     `json:"experiment"`
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	NProc      int                        `json:"nproc"`
	Params     map[string]any             `json:"params"`
	Metrics    []metric                   `json:"metrics"`
	Checks     []check                    `json:"checks"`
	Registry   []telemetry.MetricSnapshot `json:"registry"`
}

// metric is one reported number with its unit and the number of samples
// it summarises.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// check is one tripwire: whether it held, and the numbers it compared.
type check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

func newRecord(experiment string, params map[string]any) *record {
	return &record{
		Schema:     "experiment/v1",
		Experiment: experiment,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Params:     params,
		Metrics:    []metric{},
		Checks:     []check{},
	}
}

func (r *record) metric(name, unit string, value float64, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, Samples: samples})
}

func (r *record) check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// experiment runs one selection. It prints what it prints and returns
// its record, or nil for the paper tables that keep none.
type experiment func() (*record, error)

// runExperiments runs each experiment in turn, prints every metric and
// check of its record, and writes the record to dir/BENCH_<name>.json
// (no file when dir is empty). It fails on the first experiment error,
// and after the last experiment if any check failed.
func runExperiments(w io.Writer, dir string, exps []experiment) error {
	failed := 0
	for _, run := range exps {
		rec, err := run()
		if err != nil {
			return err
		}
		if rec == nil {
			continue
		}
		fmt.Fprintf(w, "experiment %s\n", rec.Experiment)
		for _, m := range rec.Metrics {
			fmt.Fprintf(w, "  %-32s %14.3f %-12s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		}
		for _, c := range rec.Checks {
			status := "ok"
			if !c.Pass {
				status = "FAIL"
				failed++
			}
			fmt.Fprintf(w, "  check %-26s %-4s %s\n", c.Name, status, c.Detail)
		}
		if dir != "" {
			path, err := writeRecord(dir, rec)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "record written to %s\n", path)
		}
		fmt.Fprintln(w)
	}
	if failed > 0 {
		return fmt.Errorf("%d check(s) failed", failed)
	}
	return nil
}

func writeRecord(dir string, rec *record) (string, error) {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+rec.Experiment+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

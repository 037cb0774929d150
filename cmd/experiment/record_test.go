package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// roundTrip writes rec the way the run loop does, decodes the file with
// unknown fields disallowed (schema drift fails the decode), and checks
// that the header, metrics and checks came back unchanged.
func roundTrip(t *testing.T, rec *record) *record {
	t.Helper()
	path, err := writeRecord(t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_"+rec.Experiment+".json" {
		t.Errorf("record written to %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var back record
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("strict decode of %s: %v", path, err)
	}
	if back.Schema != "experiment/v1" || back.Experiment != rec.Experiment {
		t.Fatalf("header = %q/%q", back.Schema, back.Experiment)
	}
	if back.GoVersion == "" || back.GOMAXPROCS < 1 || back.NProc < 1 {
		t.Errorf("machine facts = %q/%d/%d", back.GoVersion, back.GOMAXPROCS, back.NProc)
	}
	if !reflect.DeepEqual(back.Metrics, rec.Metrics) || !reflect.DeepEqual(back.Checks, rec.Checks) {
		t.Error("metrics or checks lost in the round-trip")
	}
	if len(back.Registry) != len(rec.Registry) {
		t.Errorf("registry: %d families written, %d read", len(rec.Registry), len(back.Registry))
	}
	return &back
}

// metricOf returns the named metric, failing the test when it is missing.
func metricOf(t *testing.T, rec *record, name string) metric {
	t.Helper()
	for _, m := range rec.Metrics {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("%s record has no metric %q", rec.Experiment, name)
	return metric{}
}

// hasMetric reports whether the record carries the named metric.
func hasMetric(rec *record, name string) bool {
	for _, m := range rec.Metrics {
		if m.Name == name {
			return true
		}
	}
	return false
}

// passed reports whether the named check ran and held.
func passed(t *testing.T, rec *record, name string) bool {
	t.Helper()
	for _, c := range rec.Checks {
		if c.Name == name {
			return c.Pass
		}
	}
	t.Fatalf("%s record has no check %q", rec.Experiment, name)
	return false
}

// hasCheck reports whether the record carries the named check.
func hasCheck(rec *record, name string) bool {
	for _, c := range rec.Checks {
		if c.Name == name {
			return true
		}
	}
	return false
}

// registryHas reports whether the process metrics snapshot holds the
// named family.
func registryHas(rec *record, name string) bool {
	for _, m := range rec.Registry {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestRunExperimentsFailingCheck: a failing check still writes its
// record, with pass:false, and the loop returns an error after running
// the remaining experiments; an empty directory writes no file.
func TestRunExperimentsFailingCheck(t *testing.T) {
	stub := func(name string, pass bool) experiment {
		return func() (*record, error) {
			rec := newRecord(name, map[string]any{"bound": 1})
			rec.metric("row/value", "x", 2, 1)
			rec.check("bound", pass, "value 2, bound 1")
			return rec, nil
		}
	}
	ran := false
	table := func() (*record, error) { ran = true; return nil, nil }
	dir := t.TempDir()
	var out bytes.Buffer
	err := runExperiments(&out, dir, []experiment{stub("bad", false), table, stub("good", true)})
	if err == nil {
		t.Fatal("a failed check returned no error")
	}
	if !ran {
		t.Error("the loop stopped before the remaining experiments")
	}
	for _, name := range []string{"bad", "good"} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Checks) != 1 || rec.Checks[0].Pass != (name == "good") {
			t.Errorf("BENCH_%s.json checks = %+v", name, rec.Checks)
		}
	}
	for _, want := range []string{"row/value", "check bound", "FAIL"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	// With no directory nothing is written, not even to the working one.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	if err := os.Chdir(empty); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := runExperiments(&out, "", []experiment{stub("good", true)}); err != nil {
		t.Fatal(err)
	}
	if files, _ := os.ReadDir(empty); len(files) != 0 {
		t.Errorf("empty -out wrote %d files", len(files))
	}
	wantErr := errors.New("boom")
	if err := runExperiments(&out, dir, []experiment{func() (*record, error) { return nil, wantErr }}); !errors.Is(err, wantErr) {
		t.Errorf("experiment error = %v, want %v", err, wantErr)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qurator"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
)

func writeCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCSV(t *testing.T) {
	f := qurator.New()
	path := writeCSV(t, "item,q:HitRatio,q:EvidenceCode\n"+
		"urn:lsid:x.org:ns:a,0.8,TAS\n"+
		"urn:lsid:x.org:ns:b,0.2,\n")
	items, err := loadCSV(f, path)
	if err != nil {
		t.Fatalf("loadCSV: %v", err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	cache, _ := f.Repository("cache")
	v, ok := cache.Get(items[0], ontology.HitRatio)
	if !ok || !v.Equal(evidence.Float(0.8)) {
		t.Errorf("HitRatio = %v, %v", v, ok)
	}
	// String evidence parses as string.
	v, ok = cache.Get(items[0], ontology.EvidenceCode)
	if !ok || v.AsString() != "TAS" {
		t.Errorf("EvidenceCode = %v, %v", v, ok)
	}
	// Empty cell stored nothing.
	if _, ok := cache.Get(items[1], ontology.EvidenceCode); ok {
		t.Error("empty cell should not annotate")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	f := qurator.New()
	cases := []string{
		"",                         // no header
		"item,q:HitRatio\n",        // no rows
		"item\nurn:x\n",            // no evidence columns
		"item,q:HitRatio\nurn:x\n", // ragged row
	}
	for i, content := range cases {
		path := writeCSV(t, content)
		if _, err := loadCSV(f, path); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := loadCSV(f, filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file should fail")
	}
}

func runQvrun(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func writeStrongWeakCSV(t *testing.T) string {
	t.Helper()
	return writeCSV(t, "item,q:HitRatio,q:Coverage,q:Masses,q:PeptidesCount\n"+
		"urn:lsid:test.org:hit:0,0.9,0.8,12,8\n"+
		"urn:lsid:test.org:hit:1,0.15,0.1,11,8\n"+
		"urn:lsid:test.org:hit:2,0.9,0.8,12,8\n"+
		"urn:lsid:test.org:hit:3,0.15,0.1,11,8\n")
}

// Missing inputs must produce a non-zero exit and a usage message, not a
// bare error or — worse — a zero exit.
func TestMissingDataFlagFailsWithUsage(t *testing.T) {
	code, _, stderr := runQvrun(t, "")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-data is required") || !strings.Contains(stderr, "Usage") {
		t.Errorf("stderr lacks error + usage:\n%s", stderr)
	}
}

func TestMissingDataFileFailsWithUsage(t *testing.T) {
	code, _, stderr := runQvrun(t, "", "-data", filepath.Join(t.TempDir(), "no-such.csv"))
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "data file") || !strings.Contains(stderr, "Usage") {
		t.Errorf("stderr lacks error + usage:\n%s", stderr)
	}
}

func TestMissingViewFileFailsWithUsage(t *testing.T) {
	code, _, stderr := runQvrun(t, "",
		"-view", filepath.Join(t.TempDir(), "no-such.xml"),
		"-data", writeStrongWeakCSV(t))
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "view file") || !strings.Contains(stderr, "Usage") {
		t.Errorf("stderr lacks error + usage:\n%s", stderr)
	}
}

func TestBadFlagFailsNonZero(t *testing.T) {
	code, _, _ := runQvrun(t, "", "-no-such-flag")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

func TestBatchRunAcceptsStrongItems(t *testing.T) {
	code, stdout, stderr := runQvrun(t, "", "-data", writeStrongWeakCSV(t))
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "hit:0") || !strings.Contains(stdout, "hit:2") {
		t.Errorf("strong items missing from output:\n%s", stdout)
	}
	if !strings.Contains(stdout, "2 of 4 items") {
		t.Errorf("expected 2 of 4 accepted:\n%s", stdout)
	}
}

func TestConditionOverride(t *testing.T) {
	code, stdout, stderr := runQvrun(t, "",
		"-data", writeStrongWeakCSV(t), "-condition", "HR_MC > 0")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "4 of 4 items") {
		t.Errorf("loosened condition should accept everything:\n%s", stdout)
	}
}

// TestStreamMode drives the NDJSON stdin mode end to end: items in,
// window-by-window decisions out.
func TestStreamMode(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 8; i++ {
		hr, mc := "0.9", "0.8"
		if i%2 == 1 {
			hr, mc = "0.15", "0.1"
		}
		fmt.Fprintf(&in, `{"item":"urn:lsid:test.org:hit:%d","evidence":{"q:HitRatio":%s,"q:Coverage":%s,"q:Masses":12,"q:PeptidesCount":8}}%s`,
			i, hr, mc, "\n")
	}
	code, stdout, stderr := runQvrun(t, in.String(), "-stream", "-window", "4")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	// 8 decisions + 2 window summaries.
	if len(lines) != 10 {
		t.Fatalf("got %d NDJSON lines, want 10:\n%s", len(lines), stdout)
	}
	if !strings.Contains(stdout, `"window":1`) {
		t.Errorf("second window missing:\n%s", stdout)
	}
	// Strong items accepted (listed in an output), weak rejected.
	for _, line := range lines {
		if strings.Contains(line, "hit:0\"") && !strings.Contains(line, "accepted") {
			t.Errorf("strong item rejected: %s", line)
		}
		if strings.Contains(line, "hit:1\"") && strings.Contains(line, "accepted") {
			t.Errorf("weak item accepted: %s", line)
		}
	}
}

func TestStreamModeBadConfig(t *testing.T) {
	code, _, stderr := runQvrun(t, "", "-stream", "-window", "0")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "window") {
		t.Errorf("stderr = %s", stderr)
	}
	for _, p := range []string{"-1", "257"} {
		code, _, stderr := runQvrun(t, "", "-stream", "-parallelism", p)
		if code != 1 || !strings.Contains(stderr, "parallelism") {
			t.Errorf("-parallelism %s: exit = %d, stderr = %s", p, code, stderr)
		}
	}
}

func TestStreamModeMalformedInput(t *testing.T) {
	code, _, stderr := runQvrun(t, "not json\n", "-stream", "-window", "2")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "NDJSON") {
		t.Errorf("stderr = %s", stderr)
	}
}

// TestTelemetryDump checks -telemetry writes a JSON telemetry record to
// stderr: the run's span tree (rooted at the enactment span) plus a
// process metrics snapshot, without disturbing the stdout contract.
func TestTelemetryDump(t *testing.T) {
	code, stdout, stderr := runQvrun(t, "", "-data", writeStrongWeakCSV(t), "-telemetry")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "accepted") {
		t.Errorf("stdout lost the decision summary:\n%s", stdout)
	}
	var dump struct {
		Traces []struct {
			TraceID string `json:"traceID"`
			Root    *struct {
				Name     string            `json:"name"`
				Children []json.RawMessage `json:"children"`
			} `json:"root"`
		} `json:"traces"`
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(stderr), &dump); err != nil {
		t.Fatalf("stderr is not a JSON telemetry dump: %v\n%s", err, stderr)
	}
	if len(dump.Traces) != 1 {
		t.Fatalf("dump has %d traces, want 1", len(dump.Traces))
	}
	tr := dump.Traces[0]
	if tr.TraceID == "" || tr.Root == nil {
		t.Fatalf("trace incomplete: %+v", tr)
	}
	if !strings.HasPrefix(tr.Root.Name, "enact:") {
		t.Errorf("root span = %q, want enact:<view>", tr.Root.Name)
	}
	if len(tr.Root.Children) == 0 {
		t.Error("root span has no children")
	}
	found := false
	for _, m := range dump.Metrics {
		if m.Name == "qurator_processor_duration_seconds" {
			found = true
		}
	}
	if !found {
		t.Error("metrics snapshot lacks qurator_processor_duration_seconds")
	}
}

// TestTelemetryOffKeepsStderrQuiet: without -telemetry a clean batch run
// writes nothing to stderr.
func TestTelemetryOffKeepsStderrQuiet(t *testing.T) {
	code, _, stderr := runQvrun(t, "", "-data", writeStrongWeakCSV(t))
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if stderr != "" {
		t.Errorf("stderr not empty: %s", stderr)
	}
}

// TestDataDirPersistsAcrossRuns runs the same batch twice against one
// -data-dir and checks the second process sees the first's metadata: the
// provenance WAL/segment files exist and reopen cleanly.
func TestDataDirPersistsAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	csvPath := writeStrongWeakCSV(t)
	for i := 0; i < 2; i++ {
		code, _, stderr := runQvrun(t, "", "-data", csvPath, "-data-dir", dir, "-fsync", "never")
		if code != 0 {
			t.Fatalf("run %d: exit = %d, stderr:\n%s", i, code, stderr)
		}
	}
	f := qurator.New()
	if err := f.EnablePersistence(qurator.Persistence{Dir: dir, Fsync: "never"}); err != nil {
		t.Fatal(err)
	}
	defer f.CloseMetadata()
	if n := f.Provenance.Len(); n != 2 {
		t.Fatalf("recovered %d provenance runs, want 2", n)
	}
}

func TestDataDirBadFsyncFails(t *testing.T) {
	code, _, stderr := runQvrun(t, "",
		"-data", writeStrongWeakCSV(t), "-data-dir", t.TempDir(), "-fsync", "sometimes")
	if code != 1 || !strings.Contains(stderr, "fsync") {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
}

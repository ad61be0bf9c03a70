package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"critlock"
	"critlock/internal/report"
)

// writeTestTrace simulates a tiny run and stores it in both formats.
func writeTestTrace(t *testing.T) (binPath, jsonPath string) {
	t.Helper()
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 4, Seed: 5})
	mu := sim.NewMutex("hot")
	tr, _, err := sim.Run(func(p critlock.Proc) {
		k := p.Go("w", func(q critlock.Proc) {
			q.Lock(mu)
			q.Compute(500)
			q.Unlock(mu)
		})
		p.Compute(100)
		p.Lock(mu)
		p.Compute(200)
		p.Unlock(mu)
		p.Join(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath = filepath.Join(dir, "t.cltr")
	jsonPath = filepath.Join(dir, "t.json")
	fb, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := critlock.WriteTrace(fb, tr); err != nil {
		t.Fatal(err)
	}
	fb.Close()
	fj, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := critlock.WriteTraceJSON(fj, tr); err != nil {
		t.Fatal(err)
	}
	fj.Close()
	return binPath, jsonPath
}

func TestAnalyzeBinaryTrace(t *testing.T) {
	bin, _ := writeTestTrace(t)
	if err := run([]string{bin}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-top", "0", "-threadstats", "-gantt", bin}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-csv", bin}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-noclip", bin}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeJSONTrace(t *testing.T) {
	bin, js := writeTestTrace(t)
	dir := t.TempDir()
	fromBin, fromJSON := filepath.Join(dir, "bin.json"), filepath.Join(dir, "js.json")
	if err := run([]string{"-jsonreport", fromBin, bin}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-jsonreport", fromJSON, js}); err != nil {
		t.Fatalf("JSON file not analyzed without a flag: %v", err)
	}
	a, b := readExport(t, fromBin), readExport(t, fromJSON)
	a.Source, b.Source = "", ""
	if !reflect.DeepEqual(a, b) {
		t.Error("JSON trace analyzed differently from the binary one")
	}

	garbage := filepath.Join(dir, "garbage.cltr")
	if err := os.WriteFile(garbage, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{garbage})
	if err == nil || !strings.Contains(err.Error(), "binary trace") || !strings.Contains(err.Error(), "JSON trace") {
		t.Errorf("garbage input: error %v, want one naming both accepted encodings", err)
	}
}

func readExport(t *testing.T, path string) *report.Export {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := report.ReadExport(f)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing argument accepted")
	}
	if err := run([]string{"/does/not/exist.cltr"}); err == nil {
		t.Error("missing file accepted")
	}
}

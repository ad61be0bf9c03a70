package main

import (
	"os"
	"path/filepath"
	"testing"

	"critlock"
	"critlock/internal/synth"
)

func writeMicroTrace(t *testing.T) string {
	t.Helper()
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, "micro", critlock.WorkloadParams{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "micro.cltr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := critlock.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestGenerateModel(t *testing.T) {
	in := writeMicroTrace(t)
	outPath := filepath.Join(t.TempDir(), "model.json")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{in}, out); err != nil {
		t.Fatal(err)
	}
	out.Close()
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := synth.Load(f)
	if err != nil {
		t.Fatalf("generated model does not load: %v", err)
	}
	if cfg.Threads != 4 || len(cfg.Locks) != 2 {
		t.Errorf("model = %+v", cfg)
	}
}

// TestGenerateFromJSON: a JSON trace is recognized from its bytes and
// yields the same model as its binary twin.
func TestGenerateFromJSON(t *testing.T) {
	bin := writeMicroTrace(t)
	in, err := os.Open(bin)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := critlock.ReadTrace(in)
	in.Close()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	js := filepath.Join(dir, "micro.json")
	f, err := os.Create(js)
	if err != nil {
		t.Fatal(err)
	}
	if err := critlock.WriteTraceJSON(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	model := func(path string) string {
		t.Helper()
		out, err := os.Create(filepath.Join(dir, filepath.Base(path)+".model"))
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		if err := run([]string{path}, out); err != nil {
			t.Fatalf("clagen %s: %v", path, err)
		}
		data, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := model(bin), model(js); a != b {
		t.Errorf("model from JSON differs from model from binary:\n%s\nvs\n%s", b, a)
	}
}

func TestGenerateErrors(t *testing.T) {
	if err := run(nil, os.Stdout); err == nil {
		t.Error("missing argument accepted")
	}
	if err := run([]string{"/missing.cltr"}, os.Stdout); err == nil {
		t.Error("missing file accepted")
	}
}

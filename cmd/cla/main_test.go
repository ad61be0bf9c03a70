package main

import (
	"os"
	"path/filepath"
	"testing"

	"critlock"
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
	_, js := writeTestTrace(t)
	if err := run([]string{"-json", js}); err != nil {
		t.Fatal(err)
	}
	// Binary parser must reject the JSON file.
	if err := run([]string{js}); err == nil {
		t.Error("JSON file accepted as binary")
	}
}

func TestErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing argument accepted")
	}
	if err := run([]string{"/does/not/exist.cltr"}); err == nil {
		t.Error("missing file accepted")
	}
}

package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"critlock"
	"critlock/internal/report"
	"critlock/internal/sim"
	"critlock/internal/workloads"
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

// capture runs cla with args and returns what it printed.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("cla %v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEverySectionAnySource checks that every report section prints the
// same from a segment directory as from the trace file it was converted
// from: `cla FLAG -segdir DIR` against `cla FLAG FILE`. Sections that
// write a file are compared by that file.
func TestEverySectionAnySource(t *testing.T) {
	sections := []struct {
		flags  []string
		output string // file the section writes, "" = stdout only
	}{
		{flags: []string{"-gantt"}},
		{flags: []string{"-svg", "timeline.svg"}, output: "timeline.svg"},
		{flags: []string{"-predict"}},
		{flags: []string{"-lockorder"}},
		{flags: []string{"-slack"}},
		{flags: []string{"-report", "report.md", "-windows", "4", "-slack", "-lockorder", "-threadstats"}, output: "report.md"},
		{flags: []string{"-windows", "4"}},
		{flags: []string{"-phases", "4"}},
		{flags: []string{"-narrate", "0"}},
		{flags: []string{"-hazards"}},
	}
	for _, w := range []string{"deadlockprone", "pipeline", "radiosity"} {
		spec, err := workloads.Get(w)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 24, Seed: 1}), spec, workloads.Params{Seed: 1, Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		file, segs := filepath.Join(dir, w+".cltr"), filepath.Join(dir, "segs")
		f, err := os.Create(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := critlock.WriteTrace(f, tr); err != nil {
			t.Fatal(err)
		}
		f.Close()
		capture(t, "-segdir", segs, file)

		for _, s := range sections {
			t.Run(w+"/"+s.flags[0], func(t *testing.T) {
				fromFile, fromDir := t.TempDir(), t.TempDir()
				args := func(out string) []string {
					a := append([]string(nil), s.flags...)
					if s.output != "" {
						a[1] = filepath.Join(out, s.output)
					}
					return a
				}
				want := capture(t, append(args(fromFile), file)...)
				got := capture(t, append(args(fromDir), "-segdir", segs)...)
				if s.output != "" {
					want = strings.ReplaceAll(want, fromFile, "OUT")
					got = strings.ReplaceAll(got, fromDir, "OUT")
					wantFile, err := os.ReadFile(filepath.Join(fromFile, s.output))
					if err != nil {
						t.Fatal(err)
					}
					gotFile, err := os.ReadFile(filepath.Join(fromDir, s.output))
					if err != nil {
						t.Fatal(err)
					}
					if string(gotFile) != string(wantFile) {
						t.Errorf("%s from the segdir differs from the file's:\n%s\nwant:\n%s", s.output, gotFile, wantFile)
					}
				}
				if got != want {
					t.Errorf("cla %v -segdir differs from cla %v FILE:\n%s\nwant:\n%s", s.flags, s.flags, got, want)
				}
			})
		}
	}
}

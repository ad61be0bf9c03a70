package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"critlock"
	"critlock/internal/core"
	"critlock/internal/report"
	"critlock/internal/segment"
	"critlock/internal/sim"
	"critlock/internal/trace"
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
	return captureOn(t, nil, args...)
}

// captureOn is capture with wrap applied to the source the report
// sections replay.
func captureOn(t *testing.T, wrap func(core.SegmentSource) core.SegmentSource, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = runOn(args, wrap)
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
		dir := t.TempDir()
		file, segs := writeWorkloadTrace(t, w, dir), filepath.Join(dir, "segs")
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

var update = flag.Bool("update", false, "rewrite testdata/foldonce_*.golden and slackonce_*.golden from the current output")

// loadCounter counts LoadColumns calls per segment of the source it
// wraps. Loads may come from several goroutines.
type loadCounter struct {
	core.SegmentSource
	loads []atomic.Int32
}

func (c *loadCounter) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	c.loads[i].Add(1)
	return c.SegmentSource.LoadColumns(i, cols)
}

// writeWorkloadTrace simulates workload w at seed 1 into dir/w.cltr.
func writeWorkloadTrace(t *testing.T, w, dir string) string {
	t.Helper()
	spec, err := workloads.Get(w)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 24, Seed: 1}), spec, workloads.Params{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, w+".cltr")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := critlock.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return file
}

// TestHazardFoldOnce: -hazards, -lockorder and the report's lock-order
// section share one hazard fold, so each segment of a segment directory
// is loaded once for them whichever of the flags are given (the
// analysis itself runs over its own source), and the fold of a trace
// file steps its decoded events without loading the file's in-memory
// segments at all. -slack and the report's slack section share one
// slack computation, a backward sweep that reads the analysis's own
// records, so each segment is loaded once for them from either input.
// With all three hazard flags
// the output is pinned by testdata/foldonce_<workload>.golden, and with
// -slack -report by testdata/slackonce_<workload>.golden.
func TestHazardFoldOnce(t *testing.T) {
	cases := []struct {
		flags               []string
		dirLoads, fileLoads int32
		golden              string
	}{
		{[]string{"-hazards"}, 1, 0, ""},
		{[]string{"-lockorder"}, 1, 0, ""},
		{[]string{"-report", "report.md", "-lockorder"}, 1, 0, ""},
		{[]string{"-hazards", "-lockorder", "-report", "report.md"}, 1, 0, "foldonce"},
		{[]string{"-slack"}, 1, 1, ""},
		{[]string{"-slack", "-report", "report.md"}, 1, 1, "slackonce"},
	}
	for _, w := range []string{"deadlockprone", "radiosity"} {
		dir := t.TempDir()
		file := writeWorkloadTrace(t, w, dir)
		segs := filepath.Join(dir, "segs")
		writeSegdir(t, file, segs)
		for _, c := range cases {
			legs := []struct {
				name  string
				input []string
				loads int32
			}{
				{"segdir", []string{"-segdir", segs}, c.dirLoads},
				{"file", []string{file}, c.fileLoads},
			}
			t.Run(w+"/"+strings.Join(c.flags, ""), func(t *testing.T) {
				for _, leg := range legs {
					t.Run(leg.name, func(t *testing.T) {
						out := t.TempDir()
						args := append([]string(nil), c.flags...)
						for i, a := range args {
							if a == "report.md" {
								args[i] = filepath.Join(out, a)
							}
						}
						var counter *loadCounter
						got := captureOn(t, func(src core.SegmentSource) core.SegmentSource {
							counter = &loadCounter{SegmentSource: src, loads: make([]atomic.Int32, src.NumSegments())}
							return counter
						}, append(args, leg.input...)...)
						if len(counter.loads) < 2 && w == "radiosity" {
							t.Fatalf("radiosity has %d segments, want several", len(counter.loads))
						}
						for i := range counter.loads {
							if n := counter.loads[i].Load(); n != leg.loads {
								t.Errorf("segment %d loaded %d times, want %d", i, n, leg.loads)
							}
						}
						if c.golden == "" {
							return
						}
						doc, err := os.ReadFile(filepath.Join(out, "report.md"))
						if err != nil {
							t.Fatal(err)
						}
						got = strings.ReplaceAll(got, out, "OUT") + "--- report.md ---\n" + string(doc)
						golden := filepath.Join("testdata", c.golden+"_"+w+".golden")
						if *update && leg.name == "file" {
							if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
								t.Fatal(err)
							}
						}
						want, err := os.ReadFile(golden)
						if err != nil {
							t.Fatal(err)
						}
						if got != string(want) {
							t.Errorf("cla %v differs from %s:\n%s", c.flags, golden, got)
						}
					})
				}
			})
		}
	}
}

// writeSegdir writes the trace file at file as a segment directory of
// 4,096-event segments, the size a trace file's in-memory segments
// have.
func writeSegdir(t *testing.T, file, segs string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := segment.WriteTrace(segs, tr, segment.Options{SegmentEvents: 4096}); err != nil {
		t.Fatal(err)
	}
}

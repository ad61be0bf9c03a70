package input_test

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/input"
	"critlock/internal/obs"
	"critlock/internal/report"
	"critlock/internal/segment"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// simulate runs workload name on 8 contexts at seed 1.
func simulate(t *testing.T, name string) *trace.Trace {
	t.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 8, Seed: 1}), spec, workloads.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func writeFile(t *testing.T, path string, write func(*bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opened is one way of opening the same trace.
type opened struct {
	name string
	open func() (*input.Input, error)
}

// everyKind writes tr as a binary file, a JSON file and a segment
// directory of small segments, and returns every way to open it:
// both files, the directory mapped and buffered, and the binary
// file's bytes as an upload.
func everyKind(t *testing.T, tr *trace.Trace) []opened {
	t.Helper()
	dir := t.TempDir()
	bin, js, segs := filepath.Join(dir, "t.cltr"), filepath.Join(dir, "t.json"), filepath.Join(dir, "segs")
	body := writeFile(t, bin, func(b *bytes.Buffer) error { return trace.WriteBinary(b, tr) })
	writeFile(t, js, func(b *bytes.Buffer) error { return trace.WriteJSON(b, tr) })
	if err := segment.WriteTrace(segs, tr, segment.Options{SegmentEvents: 256}); err != nil {
		t.Fatal(err)
	}
	return []opened{
		{"binary file", func() (*input.Input, error) { return input.File(bin) }},
		{"JSON file", func() (*input.Input, error) { return input.File(js) }},
		{"segdir mmapped", func() (*input.Input, error) { return input.Dir(segs, true) }},
		{"segdir buffered", func() (*input.Input, error) { return input.Dir(segs, false) }},
		{"upload", func() (*input.Input, error) { return input.Bytes("upload", body) }},
	}
}

// TestInputKindsAgree: a binary file, a JSON file, a segment directory
// (mapped and buffered) and the upload of one trace give byte-identical
// report JSON, with and without hazards, and the same lock order.
func TestInputKindsAgree(t *testing.T) {
	for _, w := range []string{"deadlockprone", "pipeline", "radiosity"} {
		tr := simulate(t, w)
		for _, hazards := range []bool{false, true} {
			var wantJSON []byte
			var wantOrder *hazard.LockOrder
			for i, k := range everyKind(t, tr) {
				in, err := k.open()
				if err != nil {
					t.Fatalf("%s %s: %v", w, k.name, err)
				}
				if got, want := in.Streamed, strings.HasPrefix(k.name, "segdir"); got != want {
					t.Errorf("%s %s: Streamed %v", w, k.name, got)
				}
				res, err := in.Analyze(core.DefaultConfig(), hazards)
				if err != nil {
					t.Fatalf("%s %s: %v", w, k.name, err)
				}
				if err := in.Close(); err != nil {
					t.Fatalf("%s %s: Close: %v", w, k.name, err)
				}
				if (res.Hazards != nil) != hazards || (res.LockOrder != nil) != hazards {
					t.Fatalf("%s %s hazards=%v: hazard report %v, lock order %v", w, k.name, hazards, res.Hazards != nil, res.LockOrder != nil)
				}
				rep := report.BuildExport("test", "trace", false, res.Analysis)
				rep.Hazards = res.Hazards
				var buf bytes.Buffer
				if err := report.WriteExport(&buf, rep); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					wantJSON, wantOrder = buf.Bytes(), res.LockOrder
					continue
				}
				if !bytes.Equal(buf.Bytes(), wantJSON) {
					t.Errorf("%s hazards=%v: the %s report differs from the binary file's", w, hazards, k.name)
				}
				if hazards && !sameOrder(res.LockOrder, wantOrder) {
					t.Errorf("%s: the %s lock order %+v differs from the binary file's %+v", w, k.name, res.LockOrder, wantOrder)
				}
			}
		}
	}
}

func sameOrder(a, b *hazard.LockOrder) bool {
	return reflect.DeepEqual(a.Edges, b.Edges) && reflect.DeepEqual(a.Cycles, b.Cycles) &&
		reflect.DeepEqual(a.CycleNames(), b.CycleNames())
}

// TestHazardPhaseObserved: the fold reports to the observer as the
// "hazard" phase, after the analysis's own phases, and only when
// hazards are asked for.
func TestHazardPhaseObserved(t *testing.T) {
	tr := simulate(t, "deadlockprone")
	for _, k := range everyKind(t, tr) {
		for _, hazards := range []bool{false, true} {
			in, err := k.open()
			if err != nil {
				t.Fatal(err)
			}
			var phases []string
			cfg := core.DefaultConfig()
			cfg.Observer = obs.Funcs{Done: func(p string, _ time.Duration) { phases = append(phases, p) }}
			if _, err := in.Analyze(cfg, hazards); err != nil {
				t.Fatal(err)
			}
			in.Close()
			last := phases[len(phases)-1]
			if got := last == "hazard"; got != hazards {
				t.Errorf("%s hazards=%v: phases %v", k.name, hazards, phases)
			}
		}
	}
}

// TestErrors: missing, empty, truncated and corrupt inputs fail with
// the typed error underneath and the text cla prints: the os error of
// an unreadable file as it is, "reading NAME: …" for an undecodable
// one, and "analyzing NAME: …" for a directory that does not open or
// an input the analysis rejects.
func TestErrors(t *testing.T) {
	tr := simulate(t, "deadlockprone")
	dir := t.TempDir()
	bin := filepath.Join(dir, "t.cltr")
	body := writeFile(t, bin, func(b *bytes.Buffer) error { return trace.WriteBinary(b, tr) })
	cut := filepath.Join(dir, "cut.cltr")
	if err := os.WriteFile(cut, body[:len(body)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.cltr")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	noEvents := filepath.Join(dir, "noevents.cltr")
	writeFile(t, noEvents, func(b *bytes.Buffer) error {
		return trace.WriteBinary(b, &trace.Trace{Meta: map[string]string{}, Threads: tr.Threads[:1]})
	})
	garbage := filepath.Join(dir, "garbage.cltr")
	if err := os.WriteFile(garbage, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs := filepath.Join(dir, "segs")
	if err := segment.WriteTrace(segs, tr, segment.Options{SegmentEvents: 256}); err != nil {
		t.Fatal(err)
	}
	// A flipped byte inside the first segment file's frames.
	corrupt := filepath.Join(dir, "corrupt")
	if err := segment.WriteTrace(corrupt, tr, segment.Options{SegmentEvents: 256}); err != nil {
		t.Fatal(err)
	}
	seg0 := filepath.Join(corrupt, firstSegment(t, segs))
	img, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(seg0, img, 0o644); err != nil {
		t.Fatal(err)
	}
	noManifest := t.TempDir()

	for _, c := range []struct {
		name  string
		open  func() (*input.Input, error)
		stage input.Stage // 0: the os error, unwrapped
		is    error
		text  string // the whole error text, or its prefix when it ends in ": "
	}{
		{"missing file", func() (*input.Input, error) { return input.File(filepath.Join(dir, "nope.cltr")) },
			0, fs.ErrNotExist, "open " + filepath.Join(dir, "nope.cltr") + ": no such file or directory"},
		{"missing dir", func() (*input.Input, error) { return input.Dir(filepath.Join(dir, "nope"), true) },
			input.StageOpen, fs.ErrNotExist, "analyzing " + filepath.Join(dir, "nope") + ": "},
		{"dir without manifest", func() (*input.Input, error) { return input.Dir(noManifest, true) },
			input.StageOpen, fs.ErrNotExist, "analyzing " + noManifest + ": "},
		{"empty file", func() (*input.Input, error) { return input.File(empty) },
			input.StageDecode, trace.ErrTruncated, "reading " + empty + ": trace: reading magic: truncated"},
		{"empty upload", func() (*input.Input, error) { return input.Bytes("trace", nil) },
			input.StageDecode, trace.ErrTruncated, "reading trace: trace: reading magic: truncated"},
		{"truncated file", func() (*input.Input, error) { return input.File(cut) },
			input.StageDecode, trace.ErrTruncated, "reading " + cut + ": "},
		{"truncated upload", func() (*input.Input, error) { return input.Bytes("trace", body[:len(body)-7]) },
			input.StageDecode, trace.ErrTruncated, "reading trace: "},
		{"garbage", func() (*input.Input, error) { return input.File(garbage) },
			input.StageDecode, nil, "reading " + garbage + ": trace: unrecognized input \"not \": "},
		{"no events", analyzed(func() (*input.Input, error) { return input.File(noEvents) }),
			input.StageAnalyze, trace.ErrEmptyTrace, "analyzing " + noEvents + ": "},
		{"corrupt segment", analyzed(func() (*input.Input, error) { return input.Dir(corrupt, true) }),
			input.StageAnalyze, trace.ErrChecksum, "analyzing " + corrupt + ": "},
		{"corrupt segment, buffered", analyzed(func() (*input.Input, error) { return input.Dir(corrupt, false) }),
			input.StageAnalyze, trace.ErrChecksum, "analyzing " + corrupt + ": "},
	} {
		in, err := c.open()
		if err == nil {
			in.Close()
			t.Errorf("%s: no error", c.name)
			continue
		}
		var ie *input.Error
		switch {
		case c.stage == 0 && errors.As(err, &ie):
			t.Errorf("%s: %v wrapped as an input.Error", c.name, err)
		case c.stage != 0 && (!errors.As(err, &ie) || ie.Stage != c.stage):
			t.Errorf("%s: %v (%T), want an input.Error at stage %d", c.name, err, err, c.stage)
		}
		if c.is != nil && !errors.Is(err, c.is) {
			t.Errorf("%s: %v is not %v", c.name, err, c.is)
		}
		if strings.HasSuffix(c.text, ": ") {
			if !strings.HasPrefix(err.Error(), c.text) {
				t.Errorf("%s: error %q, want it to start %q", c.name, err, c.text)
			}
		} else if err.Error() != c.text {
			t.Errorf("%s: error %q, want %q", c.name, err, c.text)
		}
	}
}

// analyzed opens with open and, if that succeeds, analyzes with hazards,
// returning the first error.
func analyzed(open func() (*input.Input, error)) func() (*input.Input, error) {
	return func() (*input.Input, error) {
		in, err := open()
		if err != nil {
			return nil, err
		}
		if _, err := in.Analyze(core.DefaultConfig(), true); err != nil {
			in.Close()
			return nil, err
		}
		return in, nil
	}
}

// firstSegment names the first segment file of the directory dir.
func firstSegment(t *testing.T, dir string) string {
	t.Helper()
	rdr, err := segment.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdr.Close()
	return rdr.Segment(0).Name
}

// TestHazardFailure: a fold that cannot read a segment fails at the
// hazard stage, with the text cla prints.
func TestHazardFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	if err := segment.WriteTrace(dir, simulate(t, "deadlockprone"), segment.Options{SegmentEvents: 256}); err != nil {
		t.Fatal(err)
	}
	in, err := input.Dir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Segments = failingLoads{in.Segments}
	_, err = in.Analyze(core.DefaultConfig(), true)
	var ie *input.Error
	if !errors.As(err, &ie) || ie.Stage != input.StageHazard || !errors.Is(err, errUnreadable) {
		t.Fatalf("error %v, want the unreadable segment at the hazard stage", err)
	}
	if want := "hazard analysis of " + dir + ": segment unreadable"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

var errUnreadable = errors.New("segment unreadable")

type failingLoads struct{ core.SegmentSource }

func (failingLoads) LoadColumns(int, *trace.Columns) (int64, error) { return 0, errUnreadable }

// TestCloseTwice: Close releases a directory once, and a second Close
// (or a Close of a decoded trace) does nothing.
func TestCloseTwice(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	if err := segment.WriteTrace(dir, simulate(t, "pipeline"), segment.Options{}); err != nil {
		t.Fatal(err)
	}
	in, err := input.Dir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, simulate(t, "pipeline")); err != nil {
		t.Fatal(err)
	}
	if in, err = input.Bytes("trace", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

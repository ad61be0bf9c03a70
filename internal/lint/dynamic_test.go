package lint_test

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"critlock"
	"critlock/internal/lint"
	"critlock/internal/segment"
)

// corroboratingSrc statically realizes the same A→B / B→A inversion
// the deadlockprone workload realizes dynamically, bound to the same
// dynamic lock names, so the dynamic cycle can name its static
// counterpart.
const corroboratingSrc = `package demo

type Mutex interface{ Name() string }
type Proc interface {
	Lock(m Mutex)
	Unlock(m Mutex)
}
type Runtime interface {
	NewMutex(name string) Mutex
}

type pair struct{ a, b Mutex }

func build(rt Runtime) *pair {
	return &pair{a: rt.NewMutex("locks.A"), b: rt.NewMutex("locks.B")}
}

func (s *pair) ab(p Proc) {
	p.Lock(s.a)
	p.Lock(s.b)
	p.Unlock(s.b)
	p.Unlock(s.a)
}

func (s *pair) ba(p Proc) {
	p.Lock(s.b)
	p.Lock(s.a)
	p.Unlock(s.a)
	p.Unlock(s.b)
}
`

func deadlockProneTrace(t *testing.T) *critlock.Trace {
	t.Helper()
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, "deadlockprone", critlock.WorkloadParams{Seed: 1})
	if err != nil {
		t.Fatalf("running deadlockprone: %v", err)
	}
	return tr
}

func lintCorroborating(t *testing.T) *lint.Result {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "demo.go"), []byte(corroboratingSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(lint.Options{Patterns: []string{dir}, StdlibTypes: true})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	return res
}

// TestCrossReferenceHazardsDeadlock: the full static↔dynamic hazard
// join. The deadlockprone trace yields one feasible-deadlock cycle on
// {locks.A, locks.B}; the static corpus realizes the same inversion;
// the merged view must contain a dyndeadlock finding that names the
// static corroboration, anchored at a static acquisition site, joined
// to the measured report.
func TestCrossReferenceHazardsDeadlock(t *testing.T) {
	tr := deadlockProneTrace(t)
	path := filepath.Join(t.TempDir(), "trace.cltr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := critlock.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := lint.LoadDynamic(path)
	if err != nil {
		t.Fatalf("LoadDynamic(trace): %v", err)
	}
	if rep.Hazards == nil || len(rep.Hazards.Cycles) != 1 {
		t.Fatalf("trace hazards = %+v, want exactly one cycle", rep.Hazards)
	}

	res := lintCorroborating(t)
	lint.CrossReferenceHazards(res, rep)

	var dyn *lint.Finding
	for i := range res.Findings {
		if res.Findings[i].Check == lint.CheckDynDeadlock {
			if dyn != nil {
				t.Fatal("more than one dyndeadlock finding")
			}
			dyn = &res.Findings[i]
		}
	}
	if dyn == nil {
		t.Fatal("no dyndeadlock finding after CrossReferenceHazards")
	}
	if !strings.Contains(dyn.Message, "corroborates the static lockorder cycle") {
		t.Errorf("dyndeadlock message lacks corroboration: %q", dyn.Message)
	}
	if dyn.File == "" || dyn.Line == 0 {
		t.Errorf("dyndeadlock finding not anchored at a static site: %s", dyn.Pos())
	}
	if !dyn.Matched {
		t.Error("dyndeadlock finding not joined to the measured report")
	}
	if len(dyn.CycleDyn) != 2 {
		t.Errorf("dyndeadlock CycleDyn = %v, want both locks", dyn.CycleDyn)
	}
}

// TestLoadDynamicSegdir: the streaming input path yields the identical
// hazards section as the in-memory trace.
func TestLoadDynamicSegdir(t *testing.T) {
	tr := deadlockProneTrace(t)
	dir := filepath.Join(t.TempDir(), "segs")
	if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 64}); err != nil {
		t.Fatal(err)
	}
	rep, err := lint.LoadDynamic(dir)
	if err != nil {
		t.Fatalf("LoadDynamic(segdir): %v", err)
	}
	if !rep.Streamed {
		t.Error("segdir report not marked streamed")
	}
	if rep.Hazards == nil || len(rep.Hazards.Cycles) != 1 {
		t.Fatalf("segdir hazards = %+v, want exactly one cycle", rep.Hazards)
	}
	if rep.Summary.CPLength <= 0 {
		t.Errorf("segdir analysis summary empty: %+v", rep.Summary)
	}
}

// TestCrossReferenceHazardsLostSignal: the lostsignal workload's
// finding lands in the merged list as a lostsignal check.
func TestCrossReferenceHazardsLostSignal(t *testing.T) {
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, "lostsignal", critlock.WorkloadParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.cltr")
	var buf bytes.Buffer
	if err := critlock.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := lint.LoadDynamic(path)
	if err != nil {
		t.Fatal(err)
	}

	res := lintCorroborating(t)
	before := len(res.Findings)
	lint.CrossReferenceHazards(res, rep)

	var lost int
	for _, f := range res.Findings {
		if f.Check == lint.CheckLostSignal {
			lost++
			if !strings.Contains(f.Message, "ls.cv") {
				t.Errorf("lostsignal message lacks the cond name: %q", f.Message)
			}
			if f.Severity != lint.SevError {
				t.Errorf("lostsignal severity = %s", f.Severity)
			}
		}
	}
	if lost != 1 {
		t.Errorf("lostsignal findings = %d, want 1 (had %d findings before merge)", lost, before)
	}
}

// TestLoadDynamicErrors: a missing path, a directory that does not
// open, an empty or truncated trace file and a corrupt segment fail
// with the typed error underneath and clalint's wording.
func TestLoadDynamicErrors(t *testing.T) {
	tr := deadlockProneTrace(t)
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := critlock.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	cut, empty := filepath.Join(dir, "cut.cltr"), filepath.Join(dir, "empty.cltr")
	if err := os.WriteFile(cut, body[:len(body)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "segs")
	if err := segment.WriteTrace(corrupt, tr, segment.Options{SegmentEvents: 64}); err != nil {
		t.Fatal(err)
	}
	rdr, err := segment.Open(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	seg0 := filepath.Join(corrupt, rdr.Segment(0).Name)
	rdr.Close()
	img, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(seg0, img, 0o644); err != nil {
		t.Fatal(err)
	}
	noManifest := t.TempDir()
	missing := filepath.Join(dir, "nope")

	for _, c := range []struct {
		path string
		is   error
		text string // the whole text, or its prefix when it ends in ": "
	}{
		{missing, fs.ErrNotExist, "stat " + missing + ": no such file or directory"},
		{noManifest, fs.ErrNotExist, "open segment directory " + noManifest + ": "},
		{empty, critlock.ErrTruncated, "read " + empty + ": trace: reading magic: truncated"},
		{cut, critlock.ErrTruncated, "read " + cut + ": trace: "},
		{corrupt, critlock.ErrChecksum, "analyze " + corrupt + ": segment: body checksum mismatch"},
	} {
		_, err := lint.LoadDynamic(c.path)
		switch {
		case err == nil:
			t.Errorf("%s: no error", c.path)
			continue
		case !errors.Is(err, c.is):
			t.Errorf("%s: %v is not %v", c.path, err, c.is)
		}
		if strings.HasSuffix(c.text, ": ") {
			if !strings.HasPrefix(err.Error(), c.text) {
				t.Errorf("error %q, want it to start %q", err, c.text)
			}
		} else if err.Error() != c.text {
			t.Errorf("error %q, want %q", err, c.text)
		}
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"critlock"
)

// writePair simulates the radiosity original/optimized pair and stores
// both traces.
func writePair(t *testing.T) (before, after string) {
	t.Helper()
	dir := t.TempDir()
	for _, v := range []struct {
		name    string
		twoLock bool
	}{{"before.cltr", false}, {"after.cltr", true}} {
		sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 24, Seed: 1})
		tr, _, err := critlock.RunWorkload(sim, "radiosity", critlock.WorkloadParams{
			Threads: 16, Seed: 1, TwoLock: v.twoLock,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, v.name))
		if err != nil {
			t.Fatal(err)
		}
		if err := critlock.WriteTrace(f, tr); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return filepath.Join(dir, "before.cltr"), filepath.Join(dir, "after.cltr")
}

func TestDiffPair(t *testing.T) {
	before, after := writePair(t)
	if err := run([]string{before, after}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-top", "0", before, after}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffMixedEncodings: each input's encoding is detected from its
// bytes, so a binary trace diffs against a JSON one exactly as against
// its binary twin.
func TestDiffMixedEncodings(t *testing.T) {
	before, after := writePair(t)
	in, err := os.Open(after)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := critlock.ReadTrace(in)
	in.Close()
	if err != nil {
		t.Fatal(err)
	}
	afterJSON := filepath.Join(t.TempDir(), "after.json")
	f, err := os.Create(afterJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := critlock.WriteTraceJSON(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	binary := stdoutOf(t, before, after)
	if !strings.Contains(binary, "speedup:") {
		t.Fatalf("cladiff printed no comparison:\n%s", binary)
	}
	mixed := stdoutOf(t, before, afterJSON)
	if want := strings.ReplaceAll(binary, after, afterJSON); mixed != want {
		t.Errorf("binary-vs-JSON diff differs from binary-vs-binary:\n%s\nwant:\n%s", mixed, want)
	}
}

// stdoutOf runs cladiff on args and returns what it printed.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("cladiff %v: %v", args, err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestDiffErrors(t *testing.T) {
	before, _ := writePair(t)
	if err := run([]string{before}); err == nil {
		t.Error("single argument accepted")
	}
	if err := run([]string{before, "/missing.cltr"}); err == nil {
		t.Error("missing file accepted")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{before, garbage}); err == nil {
		t.Error("garbage input accepted")
	}
}

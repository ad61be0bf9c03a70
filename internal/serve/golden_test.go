package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"critlock"
	"critlock/internal/serve"
)

// checkGolden diffs a served body byte-for-byte against
// testdata/name, or rewrites the file when UPDATE_SERVE_GOLDEN is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	goldenPath := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_SERVE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_SERVE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served report differs from %s (%d vs %d bytes); rerun with UPDATE_SERVE_GOLDEN=1 if the change is intended",
			goldenPath, len(got), len(want))
	}
}

// TestServeSmokeGolden drives the full serving path — synth workload →
// simulator → binary trace → HTTP upload → JSON report — and diffs the
// response byte-for-byte against a checked-in golden. Any change to
// the analysis numbers, the report schema or the JSON rendering shows
// up as a diff here. Refresh with:
//
//	UPDATE_SERVE_GOLDEN=1 go test ./internal/serve -run Golden
func TestServeSmokeGolden(t *testing.T) {
	cfgFile, err := os.Open(filepath.Join("testdata", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer cfgFile.Close()
	cfg, err := critlock.LoadSynth(cfgFile)
	if err != nil {
		t.Fatalf("loading smoke config: %v", err)
	}
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunSynth(sim, cfg, critlock.WorkloadParams{Seed: 1})
	if err != nil {
		t.Fatalf("running smoke workload: %v", err)
	}

	_, ts := newTestServer(t, serve.Options{})
	status, got := post(t, ts, "", traceBytes(t, tr))
	if status != http.StatusOK {
		t.Fatalf("POST /v1/analyze = %d\n%s", status, got)
	}
	checkGolden(t, "smoke_report.golden", got)
}

// TestServeChanGolden does the same for a channel-dominated workload:
// the served report must carry the hot-channel table (chans section)
// and channel-aware jump kinds, pinned byte-for-byte.
func TestServeChanGolden(t *testing.T) {
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, "pipeline", critlock.WorkloadParams{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatalf("running pipeline workload: %v", err)
	}

	_, ts := newTestServer(t, serve.Options{})
	status, got := post(t, ts, "", traceBytes(t, tr))
	if status != http.StatusOK {
		t.Fatalf("POST /v1/analyze = %d\n%s", status, got)
	}
	checkGolden(t, "pipeline_report.golden", got)
	if !bytes.Contains(got, []byte(`"chans"`)) {
		t.Error("served pipeline report has no chans section")
	}
}

// TestServeHazardsGolden pins the /v1/hazards body: the deadlock-prone
// workload's report with its hazards section (a feasible cycle whose
// witness crosses threads) spliced in after the jumps.
func TestServeHazardsGolden(t *testing.T) {
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, "deadlockprone", critlock.WorkloadParams{Seed: 1})
	if err != nil {
		t.Fatalf("running deadlockprone: %v", err)
	}

	_, ts := newTestServer(t, serve.Options{})
	resp, err := http.Post(ts.URL+"/v1/hazards", "application/octet-stream", bytes.NewReader(traceBytes(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/hazards = %d\n%s", resp.StatusCode, got)
	}
	checkGolden(t, "hazards_report.golden", got)
	if !bytes.Contains(got, []byte(`"cross_thread": true`)) {
		t.Error("served hazards report has no cross-thread witness")
	}
}

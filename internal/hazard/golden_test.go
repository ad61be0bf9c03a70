package hazard

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"critlock/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/reports.golden from current output")

// TestReportsGolden pins the full JSON report — witnesses, Via labels
// and Held stacks byte for byte — of the planted and a clean channel
// workload. The other tests check Via and Held only by substring.
func TestReportsGolden(t *testing.T) {
	cases := []struct {
		name string
		p    workloads.Params
	}{
		{"deadlockprone", workloads.Params{Seed: 1}},
		{"deadlockprone", workloads.Params{Seed: 1, TwoLock: true}},
		{"lostsignal", workloads.Params{Seed: 1}},
		{"pipeline", workloads.Params{Seed: 1}},
	}
	var got bytes.Buffer
	for _, c := range cases {
		r, err := FromTrace(runWorkload(t, c.name, c.p))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s seed=%d twolock=%t\n%s\n", c.name, c.p.Seed, c.p.TwoLock, b)
	}
	golden := filepath.Join("testdata", "reports.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/hazard -run TestReportsGolden -update` after an intended report change)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("reports drifted from %s — diff the files or refresh with -update\ngot:\n%s", golden, got.Bytes())
	}
}

package experiments

import (
	"strings"
	"testing"

	"critlock/internal/core"
)

// quick returns CI-sized options.
func quick() Options { return Options{Seed: 1, Contexts: 24, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "fig1", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "tsp",
		"ablation-fairness", "ablation-clipping",
		"extension-phases", "extension-oversub", "extension-sensitivity", "extension-online", "extension-slack", "extension-extract",
		"extension-channels", "extension-hazards",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("have %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s (paper order)", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ByID("fig9"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("bogus"); err == nil {
		t.Error("ByID(bogus) succeeded")
	}
}

// TestAllExperimentsRunQuick executes every experiment in quick mode:
// each must succeed and produce at least one table or note.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(quick())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.ID != e.ID {
				t.Errorf("result id %q != %q", res.ID, e.ID)
			}
			if len(res.Tables) == 0 && len(res.Notes) == 0 {
				t.Error("experiment produced no output")
			}
			for _, tab := range res.Tables {
				if len(tab.Rows) == 0 {
					t.Error("empty table")
				}
			}
		})
	}
}

// TestFig1TraceGolden re-checks the reference trace the fig1
// experiment is built on (the same invariants as the core golden
// test, through the experiments path).
func TestFig1TraceGolden(t *testing.T) {
	an, err := core.AnalyzeDefault(Fig1Trace())
	if err != nil {
		t.Fatal(err)
	}
	if an.CP.Length != 33_000 {
		t.Errorf("CP length = %d, want 33000 (33 units × 1µs)", an.CP.Length)
	}
	l2 := an.Lock("L2")
	if l2.InvocationsOnCP != 4 || l2.ContendedOnCP != 3 {
		t.Errorf("L2 on CP: %d invocations / %d contended, want 4/3", l2.InvocationsOnCP, l2.ContendedOnCP)
	}
	if an.Lock("L4").Critical {
		t.Error("L4 must be off the critical path")
	}
}

// TestFig6ShapeHolds: the identification result must hold (not just
// run) — CP Time picks L2, Wait Time picks L1, optimizing L2 wins.
func TestFig6ShapeHolds(t *testing.T) {
	e, err := ByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Notes, "\n")
	if !strings.Contains(joined, "optimizing L2 wins): true") {
		t.Errorf("fig6 shape check failed:\n%s", joined)
	}
}

// TestDefaults: zero options get paper defaults.
func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seed != 1 || o.Contexts != 24 {
		t.Errorf("defaults = %+v", o)
	}
}

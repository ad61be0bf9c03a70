package hazard

import (
	"bytes"
	"testing"

	"critlock/internal/core"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// BenchmarkFoldDecoded times the hazard fold of a decoded .cltr (pool
// workloads at 24 threads, seed 1000): "columns" is Fold over the
// trace viewed as in-memory segments, which copies every event into
// columns first; "events" is FoldTrace, which steps the decoded events
// in place, the fold `cla FILE -hazards` runs; "fromtrace" is
// FromTrace, the report alone from the same events, whose allocations
// FoldTrace exceeds only by its lock-order view.
//
//	go test -run '^$' -bench FoldDecoded -benchmem ./internal/hazard
func BenchmarkFoldDecoded(b *testing.B) {
	for _, name := range []string{"radiosity", "uts"} {
		tr := decodedPoolTrace(b, name)
		b.Run(name+"/columns", func(b *testing.B) {
			for range b.N {
				if _, _, err := Fold(core.TraceSegments(tr)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/events", func(b *testing.B) {
			for range b.N {
				if _, _, err := FoldTrace(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/fromtrace", func(b *testing.B) {
			for range b.N {
				if _, err := FromTrace(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decodedPoolTrace simulates workload name at 24 threads, seed 1000,
// and returns it as a .cltr reads back.
func decodedPoolTrace(tb testing.TB, name string) *trace.Trace {
	tb.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 24, Seed: 1000}), spec, workloads.Params{Threads: 24, Seed: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	tr, err = trace.DecodeBinary(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

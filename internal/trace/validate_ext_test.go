package trace_test

import (
	"fmt"
	"math/rand"
	"testing"

	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/tracetest"
	"critlock/internal/workloads"
)

// convoyTrace records a mutex convoy of about n events through the
// collector, in the shape of the benchmark's convoy_2m: 16 threads take
// one hot lock in round-robin order, each followed by a private section
// on a cold lock.
func convoyTrace(n int, seed int64) *trace.Trace {
	const threads = 16
	rng := rand.New(rand.NewSource(seed))
	col := trace.NewCollector()
	col.SetMeta("workload", "convoy")
	bufs := make([]*trace.ThreadBuffer, threads)
	bufs[0] = col.RegisterThread("t0", trace.NoThread)
	for i := 1; i < threads; i++ {
		bufs[i] = col.RegisterThread(fmt.Sprintf("t%d", i), 0)
	}
	hot := col.RegisterObject(trace.ObjMutex, "hot", 0)
	cold := col.RegisterObject(trace.ObjMutex, "cold", 0)

	bufs[0].Emit(0, trace.EvThreadStart, trace.NoObj, int64(trace.NoThread))
	for i := 1; i < threads; i++ {
		bufs[0].Emit(0, trace.EvThreadCreate, trace.NoObj, int64(i))
		bufs[i].Emit(0, trace.EvThreadStart, trace.NoObj, 0)
	}
	tm, free := trace.Time(1), trace.Time(0)
	for r := 0; r < n/(threads*6); r++ {
		for k, b := range bufs {
			acq := tm + trace.Time(k)
			obt := max(acq, free+1)
			rel := obt + 5 + trace.Time(rng.Intn(9))
			arg := int64(0)
			if obt > acq {
				arg = trace.LockArgContended
			}
			b.Emit(acq, trace.EvLockAcquire, hot, 0)
			b.Emit(obt, trace.EvLockObtain, hot, arg)
			b.Emit(rel, trace.EvLockRelease, hot, 0)
			b.Emit(rel, trace.EvLockAcquire, cold, 0)
			b.Emit(rel, trace.EvLockObtain, cold, 0)
			b.Emit(rel+1, trace.EvLockRelease, cold, 0)
			free = rel
		}
		tm = free + 20 + trace.Time(rng.Intn(10))
	}
	for _, b := range bufs {
		b.Emit(tm, trace.EvThreadExit, trace.NoObj, 0)
	}
	return col.Finish()
}

// mixedTrace is tracetest.Mixed, failing tb on a simulator error.
func mixedTrace(tb testing.TB, n int, seed int64) *trace.Trace {
	tr, err := tracetest.Mixed(n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestValidateMatchesOracle runs Validate and the map-based oracle on
// every registered workload at seeds 1–3 and on the benchmark-shaped
// convoy and mixed programs, well-formed and with one event dropped
// (which leaves state behind), and requires them to agree.
func TestValidateMatchesOracle(t *testing.T) {
	check := func(t *testing.T, tr *trace.Trace) {
		if err := trace.Validate(tr); err != nil {
			t.Errorf("well-formed trace rejected: %v", err)
		}
		trace.CheckAgainstOracle(t, tr)
		for _, drop := range []int{len(tr.Events) / 3, len(tr.Events) / 2} {
			cut := &trace.Trace{Meta: tr.Meta, Threads: tr.Threads, Objects: tr.Objects}
			cut.Events = append(append(cut.Events, tr.Events[:drop]...), tr.Events[drop+1:]...)
			trace.CheckAgainstOracle(t, cut)
		}
	}
	for _, name := range workloads.Names() {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 8, Seed: seed}), spec, workloads.Params{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				check(t, tr)
			})
		}
	}
	t.Run("convoy", func(t *testing.T) { check(t, convoyTrace(20_000, 1)) })
	t.Run("mixed", func(t *testing.T) { check(t, mixedTrace(t, 20_000, 1)) })
}

// TestValidateAllocs: validating a well-formed trace allocates per
// thread and per object, never per event.
func TestValidateAllocs(t *testing.T) {
	tr := convoyTrace(100_000, 1)
	threads := len(tr.Threads)
	allocs := testing.AllocsPerRun(5, func() {
		if err := trace.Validate(tr); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Validate on %d events, %d threads: %.0f allocations", len(tr.Events), threads, allocs)
	if limit := float64(4*threads + 16); allocs > limit {
		t.Errorf("Validate allocated %.0f objects, want at most %.0f (4 per thread + 16)", allocs, limit)
	}
}

var validateErr error

// BenchmarkValidate reports Validate's cost per event on a 16-thread
// convoy over one hot lock and on the mixed program (channels, conds,
// an RWMutex, a barrier).
func BenchmarkValidate(b *testing.B) {
	for _, c := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"convoy", convoyTrace(200_000, 1)},
		{"mixed", mixedTrace(b, 200_000, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				validateErr = trace.Validate(c.tr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.tr.Events)), "ns/event")
			if validateErr != nil {
				b.Fatal(validateErr)
			}
		})
	}
}

package sim

import (
	"reflect"
	"strings"
	"testing"

	"critlock/internal/core"
	"critlock/internal/harness"
	"critlock/internal/trace"
)

// runSim runs fn on a fresh simulator and fails the test on error.
func runSim(t *testing.T, cfg Config, fn func(rt harness.Runtime) func(harness.Proc)) (*trace.Trace, trace.Time) {
	t.Helper()
	s := New(cfg)
	main := fn(s)
	tr, elapsed, err := s.Run(main)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("sim produced invalid trace: %v", err)
	}
	return tr, elapsed
}

func TestComputeAdvancesVirtualTime(t *testing.T) {
	_, elapsed := runSim(t, Config{}, func(rt harness.Runtime) func(harness.Proc) {
		return func(p harness.Proc) {
			p.Compute(100)
			p.Compute(250)
			p.Compute(0)  // no-ops must not advance time
			p.Compute(-5) // nor go backwards
		}
	})
	if elapsed != 350 {
		t.Errorf("elapsed = %d, want 350", elapsed)
	}
}

func TestParallelComputeOverlaps(t *testing.T) {
	_, elapsed := runSim(t, Config{Contexts: 4}, func(rt harness.Runtime) func(harness.Proc) {
		return func(p harness.Proc) {
			var kids []harness.Thread
			for i := 0; i < 3; i++ {
				kids = append(kids, p.Go("w", func(q harness.Proc) { q.Compute(1000) }))
			}
			for _, k := range kids {
				p.Join(k)
			}
		}
	})
	if elapsed != 1000 {
		t.Errorf("elapsed = %d, want 1000 (3 threads overlap on 4 contexts)", elapsed)
	}
}

func TestContextLimitSerializes(t *testing.T) {
	// 4 threads x 1000ns of work on 2 contexts → 2000ns makespan.
	_, elapsed := runSim(t, Config{Contexts: 2}, func(rt harness.Runtime) func(harness.Proc) {
		return func(p harness.Proc) {
			var kids []harness.Thread
			for i := 0; i < 4; i++ {
				kids = append(kids, p.Go("w", func(q harness.Proc) { q.Compute(1000) }))
			}
			for _, k := range kids {
				p.Join(k)
			}
		}
	})
	// Main occupies a context only momentarily (it blocks in Join), so
	// the 4 workers share 2 contexts: 2 rounds of 1000ns.
	if elapsed != 2000 {
		t.Errorf("elapsed = %d, want 2000", elapsed)
	}
}

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	var order []trace.ThreadID
	tr, elapsed := runSim(t, Config{}, func(rt harness.Runtime) func(harness.Proc) {
		m := rt.NewMutex("m")
		return func(p harness.Proc) {
			var kids []harness.Thread
			for i := 0; i < 3; i++ {
				kids = append(kids, p.Go("w", func(q harness.Proc) {
					q.Compute(trace.Time(1 + q.ID())) // stagger acquire order: t1, t2, t3
					q.Lock(m)
					order = append(order, q.ID())
					q.Compute(100)
					q.Unlock(m)
				}))
			}
			for _, k := range kids {
				p.Join(k)
			}
		}
	})
	want := []trace.ThreadID{1, 2, 3}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("FIFO grant order = %v, want %v", order, want)
	}
	// Thread 1 enters at 2, holds 100; thread 2 waits 102-3=99, etc.
	// Completion: 2 + 3*100 = 302.
	if elapsed != 302 {
		t.Errorf("elapsed = %d, want 302", elapsed)
	}
	// Exactly two contended obtains recorded.
	contended := 0
	for _, e := range tr.Events {
		if e.Contended() {
			contended++
		}
	}
	if contended != 2 {
		t.Errorf("contended obtains = %d, want 2", contended)
	}
}

func TestLIFOWakePolicy(t *testing.T) {
	var order []trace.ThreadID
	runSim(t, Config{WakePolicy: WakeLIFO}, func(rt harness.Runtime) func(harness.Proc) {
		m := rt.NewMutex("m")
		return func(p harness.Proc) {
			var kids []harness.Thread
			for i := 0; i < 3; i++ {
				kids = append(kids, p.Go("w", func(q harness.Proc) {
					q.Compute(trace.Time(1 + q.ID()))
					q.Lock(m)
					order = append(order, q.ID())
					q.Compute(100)
					q.Unlock(m)
				}))
			}
			for _, k := range kids {
				p.Join(k)
			}
		}
	})
	want := []trace.ThreadID{1, 3, 2} // last waiter (3) barges ahead of 2
	if !reflect.DeepEqual(order, want) {
		t.Errorf("LIFO grant order = %v, want %v", order, want)
	}
}

func TestBarrierMeets(t *testing.T) {
	tr, elapsed := runSim(t, Config{}, func(rt harness.Runtime) func(harness.Proc) {
		bar := rt.NewBarrier("phase", 3)
		return func(p harness.Proc) {
			var kids []harness.Thread
			for i := 0; i < 3; i++ {
				d := trace.Time(100 * (i + 1))
				kids = append(kids, p.Go("w", func(q harness.Proc) {
					q.Compute(d)
					q.BarrierWait(bar)
					q.Compute(10)
				}))
			}
			for _, k := range kids {
				p.Join(k)
			}
		}
	})
	if elapsed != 310 { // slowest arrives at 300, everyone computes 10 more
		t.Errorf("elapsed = %d, want 310", elapsed)
	}
	lastDeparts := 0
	for _, e := range tr.Events {
		if e.Kind == trace.EvBarrierDepart {
			if e.T != 300 {
				t.Errorf("depart at %d, want 300", e.T)
			}
			if e.Arg == 1 {
				lastDeparts++
			}
		}
	}
	if lastDeparts != 1 {
		t.Errorf("last-arriver departs = %d, want 1", lastDeparts)
	}
}

func TestBarrierReuse(t *testing.T) {
	_, elapsed := runSim(t, Config{}, func(rt harness.Runtime) func(harness.Proc) {
		bar := rt.NewBarrier("phase", 2)
		return func(p harness.Proc) {
			k := p.Go("w", func(q harness.Proc) {
				for i := 0; i < 3; i++ {
					q.Compute(50)
					q.BarrierWait(bar)
				}
			})
			for i := 0; i < 3; i++ {
				p.Compute(100)
				p.BarrierWait(bar)
			}
			p.Join(k)
		}
	})
	if elapsed != 300 { // main is the laggard in every episode
		t.Errorf("elapsed = %d, want 300", elapsed)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	var got []trace.ThreadID
	runSim(t, Config{}, func(rt harness.Runtime) func(harness.Proc) {
		m := rt.NewMutex("qmu")
		cv := rt.NewCond("ready")
		return func(p harness.Proc) {
			var kids []harness.Thread
			for i := 0; i < 2; i++ {
				d := trace.Time(10 * (i + 1))
				kids = append(kids, p.Go("waiter", func(q harness.Proc) {
					q.Compute(d)
					q.Lock(m)
					q.Wait(cv, m)
					got = append(got, q.ID())
					q.Unlock(m)
				}))
			}
			p.Compute(100)
			p.Signal(cv) // wakes thread 1 (first waiter)
			p.Compute(50)
			p.Signal(cv) // wakes thread 2
			for _, k := range kids {
				p.Join(k)
			}
		}
	})
	want := []trace.ThreadID{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cond wake order = %v, want %v", got, want)
	}
}

func TestCondBroadcast(t *testing.T) {
	count := 0
	_, elapsed := runSim(t, Config{}, func(rt harness.Runtime) func(harness.Proc) {
		m := rt.NewMutex("qmu")
		cv := rt.NewCond("go")
		return func(p harness.Proc) {
			var kids []harness.Thread
			for i := 0; i < 3; i++ {
				kids = append(kids, p.Go("waiter", func(q harness.Proc) {
					q.Lock(m)
					q.Wait(cv, m)
					count++
					q.Unlock(m)
					q.Compute(5)
				}))
			}
			p.Compute(40)
			p.Broadcast(cv)
			for _, k := range kids {
				p.Join(k)
			}
		}
	})
	if count != 3 {
		t.Errorf("woken waiters = %d, want 3", count)
	}
	if elapsed != 45 { // all wake at 40; mutex handoff is instantaneous
		t.Errorf("elapsed = %d, want 45", elapsed)
	}
}

func TestSignalWithoutWaitersIsLost(t *testing.T) {
	runSim(t, Config{}, func(rt harness.Runtime) func(harness.Proc) {
		cv := rt.NewCond("noone")
		return func(p harness.Proc) {
			p.Signal(cv)
			p.Broadcast(cv)
			p.Compute(10)
		}
	})
}

func TestJoinAfterExit(t *testing.T) {
	_, elapsed := runSim(t, Config{}, func(rt harness.Runtime) func(harness.Proc) {
		return func(p harness.Proc) {
			k := p.Go("quick", func(q harness.Proc) { q.Compute(5) })
			p.Compute(100)
			p.Join(k) // child exited long ago: no block
			p.Compute(1)
		}
	})
	if elapsed != 101 {
		t.Errorf("elapsed = %d, want 101", elapsed)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() (*trace.Trace, trace.Time) {
		s := New(Config{Contexts: 4, Seed: 42})
		m := s.NewMutex("m")
		bar := s.NewBarrier("b", 4)
		tr, el, err := s.Run(func(p harness.Proc) {
			var kids []harness.Thread
			for i := 0; i < 3; i++ {
				kids = append(kids, p.Go("w", func(q harness.Proc) {
					for j := 0; j < 5; j++ {
						q.Compute(trace.Time(q.Rand().Intn(100)))
						q.Lock(m)
						q.Compute(trace.Time(q.Rand().Intn(20)))
						q.Unlock(m)
					}
					q.BarrierWait(bar)
				}))
			}
			p.BarrierWait(bar)
			for _, k := range kids {
				p.Join(k)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr, el
	}
	tr1, el1 := build()
	tr2, el2 := build()
	if el1 != el2 {
		t.Fatalf("elapsed differs: %d vs %d", el1, el2)
	}
	if !reflect.DeepEqual(tr1.Events, tr2.Events) {
		t.Error("event streams differ between identical runs")
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New(Config{})
	a := s.NewMutex("A")
	b := s.NewMutex("B")
	_, _, err := s.Run(func(p harness.Proc) {
		k := p.Go("w", func(q harness.Proc) {
			q.Lock(b)
			q.Compute(10)
			q.Lock(a) // AB-BA deadlock
			q.Unlock(a)
			q.Unlock(b)
		})
		p.Lock(a)
		p.Compute(10)
		p.Lock(b)
		p.Unlock(b)
		p.Unlock(a)
		p.Join(k)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "mutex:A") || !strings.Contains(err.Error(), "mutex:B") {
		t.Errorf("deadlock report lacks blocked resources: %v", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	s := New(Config{})
	_, _, err := s.Run(func(p harness.Proc) {
		k := p.Go("bad", func(q harness.Proc) {
			q.Compute(5)
			panic("boom")
		})
		p.Join(k)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic boom", err)
	}
}

func TestUnlockNotOwnedPanics(t *testing.T) {
	s := New(Config{})
	m := s.NewMutex("m")
	_, _, err := s.Run(func(p harness.Proc) {
		p.Unlock(m)
	})
	if err == nil || !strings.Contains(err.Error(), "does not own") {
		t.Fatalf("err = %v, want ownership panic", err)
	}
}

func TestLockOverheadExtendsHold(t *testing.T) {
	run := func(cfg Config) trace.Time {
		s := New(cfg)
		m := s.NewMutex("m")
		_, el, err := s.Run(func(p harness.Proc) {
			k := p.Go("w", func(q harness.Proc) {
				q.Lock(m)
				q.Compute(100)
				q.Unlock(m)
			})
			p.Compute(1)
			p.Lock(m)
			p.Compute(100)
			p.Unlock(m)
			p.Join(k)
		})
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	base := run(Config{})
	withOverhead := run(Config{LockOverhead: 10, ContentionPenalty: 25})
	if withOverhead <= base {
		t.Errorf("overheads did not extend run: %d vs %d", withOverhead, base)
	}
	// base: w holds [0,100], main waits from 1, holds [100,200] → 200.
	if base != 200 {
		t.Errorf("base elapsed = %d, want 200", base)
	}
	// overhead: w obtains at 0 (+10 uncontended), holds to 110; main
	// obtains at 110 (+10+25 contended), releases at 245.
	if withOverhead != 245 {
		t.Errorf("overhead elapsed = %d, want 245", withOverhead)
	}
}

// TestSimTraceAnalyzable runs a mixed workload through the simulator
// and the analyzer end to end: full coverage, no unattributed waits.
func TestSimTraceAnalyzable(t *testing.T) {
	tr, elapsed := runSim(t, Config{Contexts: 8, Seed: 7}, func(rt harness.Runtime) func(harness.Proc) {
		m := rt.NewMutex("hot")
		m2 := rt.NewMutex("cold")
		bar := rt.NewBarrier("phase", 4)
		return func(p harness.Proc) {
			var kids []harness.Thread
			for i := 0; i < 3; i++ {
				kids = append(kids, p.Go("w", func(q harness.Proc) {
					for j := 0; j < 10; j++ {
						q.Compute(trace.Time(50 + q.Rand().Intn(50)))
						q.Lock(m)
						q.Compute(30)
						q.Unlock(m)
					}
					q.BarrierWait(bar)
					q.Lock(m2)
					q.Compute(5)
					q.Unlock(m2)
				}))
			}
			p.BarrierWait(bar)
			for _, k := range kids {
				p.Join(k)
			}
		}
	})
	an, err := core.AnalyzeDefault(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if an.CP.Length != elapsed {
		t.Errorf("CP length %d != elapsed %d (sim paths must tile completely)", an.CP.Length, elapsed)
	}
	if an.CP.WaitTime != 0 {
		t.Errorf("unattributed CP wait = %d, want 0", an.CP.WaitTime)
	}
	if got := an.CP.Coverage(); got < 0.999 || got > 1.001 {
		t.Errorf("coverage = %.4f, want 1.0", got)
	}
	hot := an.Lock("hot")
	if hot == nil || !hot.Critical {
		t.Error("hot lock not critical")
	}
}

func TestMetaRecorded(t *testing.T) {
	s := New(Config{Contexts: 24, Seed: 3})
	s.SetMeta("workload", "unit")
	tr, _, err := s.Run(func(p harness.Proc) { p.Compute(1) })
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta["backend"] != "sim" || tr.Meta["contexts"] != "24" || tr.Meta["workload"] != "unit" {
		t.Errorf("meta = %v", tr.Meta)
	}
}

func TestRandDeterministicPerThread(t *testing.T) {
	vals := map[trace.ThreadID][]int{}
	s := New(Config{Seed: 99})
	_, _, err := s.Run(func(p harness.Proc) {
		k := p.Go("w", func(q harness.Proc) {
			vals[q.ID()] = []int{q.Rand().Intn(1000), q.Rand().Intn(1000)}
		})
		vals[p.ID()] = []int{p.Rand().Intn(1000), p.Rand().Intn(1000)}
		p.Join(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(vals[0], vals[1]) {
		t.Error("different threads produced identical random streams")
	}
	// Re-run must reproduce the exact values.
	vals2 := map[trace.ThreadID][]int{}
	s2 := New(Config{Seed: 99})
	_, _, err = s2.Run(func(p harness.Proc) {
		k := p.Go("w", func(q harness.Proc) {
			vals2[q.ID()] = []int{q.Rand().Intn(1000), q.Rand().Intn(1000)}
		})
		vals2[p.ID()] = []int{p.Rand().Intn(1000), p.Rand().Intn(1000)}
		p.Join(k)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, vals2) {
		t.Error("same seed produced different random streams")
	}
}

// TestQuantumPreemption: with time slicing, two long computes on one
// context interleave and finish together instead of back-to-back.
func TestQuantumPreemption(t *testing.T) {
	run := func(quantum trace.Time) (trace.Time, trace.Time) {
		s := New(Config{Contexts: 1, Seed: 1, Quantum: quantum})
		var aDone trace.Time
		_, total, err := s.Run(func(p harness.Proc) {
			a := p.Go("a", func(q harness.Proc) {
				q.Compute(1000)
				aDone = s.Now()
			})
			bth := p.Go("b", func(q harness.Proc) { q.Compute(1000) })
			p.Join(a)
			p.Join(bth)
		})
		if err != nil {
			t.Fatal(err)
		}
		return aDone, total
	}
	// Run-to-block: a finishes at 1000, b at 2000.
	first, total := run(0)
	if first != 1000 || total != 2000 {
		t.Errorf("run-to-block: first=%d total=%d, want 1000/2000", first, total)
	}
	// 100ns slices: both interleave; the first finisher lands near the
	// end, and the total stays 2000 (no work is lost or created).
	first, total = run(100)
	if total != 2000 {
		t.Errorf("quantum: total=%d, want 2000", total)
	}
	if first < 1800 {
		t.Errorf("quantum: first=%d, want interleaved (≥1800)", first)
	}
	// Determinism holds under preemption.
	f2, t2 := run(100)
	if f2 != first || t2 != total {
		t.Errorf("quantum nondeterministic: %d/%d vs %d/%d", f2, t2, first, total)
	}
}

// TestQuantumCriticalPathStillTiles: preempted runs still analyze to
// a gap-free critical path.
func TestQuantumCriticalPathStillTiles(t *testing.T) {
	s := New(Config{Contexts: 2, Seed: 3, Quantum: 150})
	m := s.NewMutex("m")
	tr, elapsed, err := s.Run(func(p harness.Proc) {
		var kids []harness.Thread
		for i := 0; i < 5; i++ {
			kids = append(kids, p.Go("w", func(q harness.Proc) {
				q.Compute(trace.Time(300 + q.Rand().Intn(400)))
				q.Lock(m)
				q.Compute(80)
				q.Unlock(m)
			}))
		}
		for _, k := range kids {
			p.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.AnalyzeDefault(tr)
	if err != nil {
		t.Fatal(err)
	}
	if an.CP.Length != elapsed || an.CP.WaitTime != 0 {
		t.Errorf("CP %d/%d wait %d, want tiled", an.CP.Length, elapsed, an.CP.WaitTime)
	}
}

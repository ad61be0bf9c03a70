package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"critlock/internal/core"
	"critlock/internal/harness"
	"critlock/internal/trace"
)

// TestPropertyRandomPrograms is the bridge property between the
// simulator and the analyzer: for arbitrary generated programs —
// random mixes of compute, exclusive and shared locking, barriers,
// condition-free handoffs and nested spawning — the analyzed critical
// path must tile the run exactly (length == completion time, no
// unattributed waits) and every lock metric must be internally
// consistent.
func TestPropertyRandomPrograms(t *testing.T) {
	f := func(seed int64) bool { return randomProgramHolds(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyZeroLengthSectionSeeds replays seeds at which the
// property once failed: a zero-length critical section at the very
// timestamp where the critical path had just left its thread was
// counted as on the path (by time), so a lock read critical with
// nonzero slack. Pass 3 now decides that case by the walk's event
// indices.
func TestPropertyZeroLengthSectionSeeds(t *testing.T) {
	for _, seed := range []int64{-8447338674094667470, 5541210020805409061} {
		if !randomProgramHolds(t, seed) {
			t.Errorf("seed %d: property violated", seed)
		}
	}
}

// randomProgramHolds generates the random program of seed, runs it and
// checks the analysis's consistency properties, logging the first
// violation.
func randomProgramHolds(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	nThreads := 2 + rng.Intn(6)
	nLocks := 1 + rng.Intn(4)
	useBarrier := rng.Intn(2) == 0
	opsPerThread := 3 + rng.Intn(12)

	cfg := Config{Contexts: 1 + rng.Intn(8), Seed: seed}
	if rng.Intn(3) == 0 {
		cfg.Quantum = trace.Time(50 + rng.Intn(300)) // time slicing on
	}
	s := New(cfg)
	locks := make([]harness.Mutex, nLocks)
	for i := range locks {
		locks[i] = s.NewMutex("")
	}
	var bar harness.Barrier
	if useBarrier {
		bar = s.NewBarrier("bar", nThreads)
	}

	tr, elapsed, err := s.Run(func(p harness.Proc) {
		var kids []harness.Thread
		for i := 0; i < nThreads; i++ {
			kids = append(kids, p.Go("w", func(q harness.Proc) {
				for op := 0; op < opsPerThread; op++ {
					m := locks[q.Rand().Intn(nLocks)]
					switch q.Rand().Intn(4) {
					case 0:
						q.Compute(trace.Time(1 + q.Rand().Intn(500)))
					case 1:
						q.Lock(m)
						q.Compute(trace.Time(q.Rand().Intn(100)))
						q.Unlock(m)
					case 2:
						q.RLock(m)
						q.Compute(trace.Time(q.Rand().Intn(50)))
						q.RUnlock(m)
					case 3:
						if bar != nil {
							// Everyone must participate in every
							// episode: a barrier only works with a
							// deterministic per-thread schedule, so
							// fold it into compute instead.
							q.Compute(trace.Time(1 + q.Rand().Intn(100)))
						} else {
							q.Compute(trace.Time(1 + q.Rand().Intn(100)))
						}
					}
				}
				if bar != nil {
					bar.Parties() // touch
					q.BarrierWait(bar)
				}
			}))
		}
		for _, k := range kids {
			p.Join(k)
		}
	})
	if err != nil {
		t.Logf("seed %d: run error: %v", seed, err)
		return false
	}
	if err := trace.Validate(tr); err != nil {
		t.Logf("seed %d: invalid trace: %v", seed, err)
		return false
	}
	an, err := core.AnalyzeDefault(tr)
	if err != nil {
		t.Logf("seed %d: analysis error: %v", seed, err)
		return false
	}
	if an.CP.Length != elapsed || an.CP.WaitTime != 0 {
		t.Logf("seed %d: CP length %d (want %d), wait %d", seed, an.CP.Length, elapsed, an.CP.WaitTime)
		return false
	}
	for _, l := range an.Locks {
		if l.ContendedOnCP > l.InvocationsOnCP || l.InvocationsOnCP > l.TotalInvocations {
			t.Logf("seed %d: inconsistent counts for %s: %+v", seed, l.Name, l)
			return false
		}
		if l.HoldOnCP > an.CP.Length {
			t.Logf("seed %d: %s hold on CP exceeds path", seed, l.Name)
			return false
		}
		if l.Critical != (l.InvocationsOnCP > 0) {
			t.Logf("seed %d: %s critical flag mismatch", seed, l.Name)
			return false
		}
	}
	// Slack consistency: the walked path is one of the longest
	// paths, so every lock the walk marks critical must have zero
	// slack.
	sa, err := an.Slack(core.TraceSegments(tr))
	if err != nil {
		t.Logf("seed %d: slack: %v", seed, err)
		return false
	}
	for _, l := range sa.Locks {
		if l.OnCP && l.MinSlack != 0 {
			t.Logf("seed %d: critical lock %s has slack %d", seed, l.Name, l.MinSlack)
			return false
		}
	}
	// The composition must partition the path.
	c := an.Composition()
	if c.LockHold+c.Compute+c.Wait != c.Total {
		t.Logf("seed %d: composition does not partition: %+v", seed, c)
		return false
	}
	return true
}
